"""Command-line front end.

Subcommands:
    bench        one judged scenario run as a CSV row; exit 1 if the run is
                 not ok or a round stalled, 2 on bad input or unwritable --csv
    scenario     run a scenario file of any protocol; exit 1 if it is not ok
    check        bounded lemma suite; one verdict line per lemma; exit 1 on a
                 counterexample, 2 on bounds outside the instance limits or
                 an unwritable --counterexample-out
    attest-demo  deterministic remote-attestation transcript for a seed
"""

import argparse
import json
import sys

from . import bench as bench_mod
from . import checker, scenario as scenario_mod
from .bootstrap import ProvisioningBundle, make_pair, run_handshake
from .device import DeviceConfig, Endpoint
from .errors import InstanceTooLarge


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attestnet",
        description="Attested-networking emulator: benchmarks, scenarios, "
                    "lemma checks, and the attestation handshake demo.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run one benchmark configuration")
    p_bench.add_argument("--protocol", default="raw-channel",
                         choices=scenario_mod.PROTOCOLS)
    p_bench.add_argument("--delay", default="tnic",
                         choices=sorted(bench_mod.DELAY_PRESETS_NS))
    p_bench.add_argument("--batch", type=int, default=1)
    p_bench.add_argument("--payload", type=int, default=64)
    p_bench.add_argument("--requests", type=int, default=256)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--csv", default=None, help="append one CSV row here")

    p_scenario = sub.add_parser("scenario", help="run a scenario file")
    p_scenario.add_argument("path")

    p_check = sub.add_parser(
        "check", help="bounded lemma suite",
        description="Check the transport lemmas and multicast consistency on "
                    "a bounded instance: every single fault action of the "
                    "simulated network's adversary on every frame, crossed "
                    "with every delivery order into a receiving endpoint. "
                    "Exit 1 on a counterexample, 2 on bounds outside the "
                    "instance limits or an unwritable output path.")
    p_check.add_argument("--senders", type=int, default=2,
                         help=f"1..{checker.MAX_SENDERS}")
    p_check.add_argument("--messages", type=int, default=3,
                         help=f"per sender, 1..{checker.MAX_MESSAGES}")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--kernel", default="correct",
                         choices=sorted(checker.KERNELS))
    p_check.add_argument("--counterexample-out", default=None,
                         help="write the first counterexample as JSON here")

    p_demo = sub.add_parser("attest-demo", help="deterministic handshake demo")
    p_demo.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_bench(args) -> int:
    try:
        row = bench_mod.run_bench(
            protocol=args.protocol, delay_model=args.delay, batch=args.batch,
            payload=args.payload, requests=args.requests, seed=args.seed)
    except ValueError as exc:
        print(f"attestnet bench: {exc}", file=sys.stderr)
        return 2
    except bench_mod.BenchCheckFailed as exc:
        print(f"attestnet bench: check failed: {exc}", file=sys.stderr)
        return 1
    if args.csv:
        try:
            bench_mod.append_csv(args.csv, row)
        except OSError as exc:
            print(f"attestnet bench: {exc}", file=sys.stderr)
            return 2
    print(",".join(bench_mod.CSV_HEADER))
    print(",".join(row))
    return 0


def _cmd_scenario(args) -> int:
    try:
        result = scenario_mod.run_scenario(scenario_mod.load_scenario(args.path))
    except (OSError, ValueError) as exc:
        print(f"attestnet scenario: {exc}", file=sys.stderr)
        return 2
    print(result.dumps())
    return 0 if result.ok else 1


def _cmd_check(args) -> int:
    try:
        instance = checker.BoundedInstance(senders=args.senders,
                                           messages_per_sender=args.messages,
                                           seed=args.seed)
    except InstanceTooLarge as exc:
        print(f"attestnet check: {exc}", file=sys.stderr)
        return 2
    reports = checker.check_all_lemmas(instance, kernel=args.kernel)
    for report in reports:
        print(report.line())
    found = [r.counterexample for r in reports if not r.holds]
    if found and args.counterexample_out:
        try:
            with open(args.counterexample_out, "w", encoding="utf-8") as fh:
                json.dump(found[0].to_dict(), fh, indent=2, sort_keys=True)
        except OSError as exc:
            print(f"attestnet check: {exc}", file=sys.stderr)
            return 2
    return 1 if found else 0


def _cmd_demo(args) -> int:
    endpoint = Endpoint(DeviceConfig(device=1))
    vendor, controller = make_pair(args.seed, 1, endpoint)
    bundle = ProvisioningBundle(
        bitstream=b"demo-bitstream",
        secrets=[(1, 2, bytes(range(32)))])
    transcript = run_handshake(vendor, controller, bundle)
    for i, (msg_type, body) in enumerate(transcript.messages):
        print(f"msg {i}: type=0x{msg_type:02x} len={len(body)} "
              f"body={body.hex()}")
    print(f"measurement={endpoint.bitstream_measurement.hex()}")
    print(f"sessions={sorted(endpoint.sessions())}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "bench": _cmd_bench,
        "scenario": _cmd_scenario,
        "check": _cmd_check,
        "attest-demo": _cmd_demo,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
