"""Layered benchmark for attestnet.

    python3 perfbench/run.py                       # every workload, untraced and traced
    python3 perfbench/run.py --workload bft_clients4 --seed 1 --seconds 10 --trace 0

With --workload, one run: --trace 0 measures the end-to-end metrics with
tracing off; --trace 1 measures the untraced baseline for half the time and
then the per-layer metrics with every layer's entry points wrapped. Either
way the last line of standard output is one JSON object holding the metrics
BENCHMARK.json names. The lines before it print every metric with its unit,
its clock (host or sim) and which direction is better. The exit code is not
0 if any correctness gate failed. Spans of a traced run are written to
.perfbench-out/<workload>.spans.jsonl.gz; README.md says how to read them.
"""

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = Path(".perfbench-out")
TRACED_EPISODES = 2

sys.path.insert(0, str(ROOT / "src"))
try:
    import attestnet
except ImportError as exc:
    sys.exit(f"perfbench: cannot import attestnet from {ROOT / 'src'}: {exc}")
if Path(attestnet.__file__).resolve().parent.parent != ROOT / "src":
    sys.exit(f"perfbench: attestnet was imported from {attestnet.__file__}, "
             f"not from {ROOT / 'src'}")

import layers  # noqa: E402  (needs attestnet on the path)
from workloads import WORKLOADS, retained_entries  # noqa: E402

META = json.loads((HERE / "meta.json").read_text(encoding="utf-8"))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run_episodes(workload, seed, inputs, seconds, episodes=None, tracer=None):
    """Run episodes until `seconds` of them have elapsed (at least two), or
    exactly `episodes` of them. Each episode's cluster is dropped before the
    next is built; a traced episode keeps the counts read from it."""
    done = []
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.episode = len(done)
        ep = workload.episode(seed, inputs)
        if tracer is not None:
            ep.state = episode_state(ep.system)
        ep.system = None
        done.append(ep)
        if episodes is not None:
            if len(done) >= episodes:
                return done
        elif len(done) >= 2 and time.perf_counter() - start >= seconds:
            return done


def end_to_end(eps) -> dict[str, float]:
    """The first episode warms caches and lazy set-up: it is checked, not
    timed. Every episode has the same simulated-time results."""
    timed, first = eps[1:], eps[0]
    host_lat = [v for e in timed for v in e.host_lat_us]
    return {
        "setup_s": statistics.median(e.setup_s for e in timed),
        "host_us_per_record": sum(e.run_s for e in timed) * 1e6 / sum(e.records for e in timed),
        # The median of each episode, averaged: a pooled median jumps between
        # the fast and slow phases of a shared host; this mean moves smoothly.
        "host_req_p50_us": statistics.fmean(percentile(e.host_lat_us, 50) for e in timed),
        "host_req_p90_us": percentile(host_lat, 90),
        "host_req_p99_us": percentile(host_lat, 99),
        "sim_req_p50_us": percentile(first.sim_lat_us, 50),
        "sim_req_p99_us": percentile(first.sim_lat_us, 99),
        "sim_records_per_s": first.records / (first.sim_elapsed_ns / 1e9),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_share": sum(e.failed for e in eps) / sum(e.attempted for e in eps),
    }


def episode_state(system) -> dict[str, int]:
    """Counts read from the simulator and the stores after an episode."""
    net = system.cluster.net
    trace = net.trace
    return {
        "trace_entries": len(trace),
        "retransmits": sum(1 for ev in trace if ev.attempt > 1),
        "accepted": sum(1 for ev in trace if ev.accepted),
        "wire_sim_ns": sum(net.latency_for(ev.frame) for ev in trace),
        "exhausted": len(net.exhausted),
        "retained": retained_entries(system),
        "nodes": len(getattr(system, "replicas", None) or getattr(system, "nodes", None)
                     or [system.root, *system.children]),
        "quorum": system.config.quorum if hasattr(system, "clients") else 0,
    }


def layer_metrics(tracer, eps, protocol, overhead_ratio) -> dict[str, float | None]:
    """Per-layer metrics of the traced episodes; None where undefined (n/a)."""
    reqs = sum(e.attempted for e in eps)
    wall_ns = sum(e.run_s for e in eps) * 1e9
    calls, incl, own = {}, {}, {}
    layer_self: dict[str, int] = {}
    top_ns = 0
    for (name, start, end, parent, _), self_ns in zip(tracer.spans, tracer.self_times()):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0) + end - start
        own[name] = own.get(name, 0) + self_ns
        layer = name.partition(".")[0]
        layer_self[layer] = layer_self.get(layer, 0) + self_ns
        if parent < 0:
            top_ns += end - start
    c = tracer.counts
    state = {k: sum(e.state[k] for e in eps) for k in eps[0].state}
    nodes, quorum = eps[0].state["nodes"], eps[0].state["quorum"]

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    def per_req(count):
        return count / reqs

    def us_per_call(totals, *names):
        k = n(*names)
        return sum(totals.get(x, 0) for x in names) / k / 1e3 if k else None

    def ratio(num, den):
        return num / den if den else None

    m = {
        "kernel.tag_calls_per_req": per_req(n("kernel.compute_tag")),
        "kernel.tag_kib_per_req": per_req(c["kernel.tag_bytes"]) / 1024,
        "kernel.tag_us": us_per_call(own, "kernel.compute_tag"),
        "kernel.attest_us": us_per_call(incl, "kernel.attest_with"),
        "kernel.verify_us": us_per_call(incl, "kernel.verify_with"),
        "kernel.rejects_per_req": per_req(c["kernel.rejects"]),
        "wire.encode_per_req": per_req(n("wire.encode_frame")),
        "wire.decode_per_req": per_req(n("wire.decode_frame")),
        "wire.decode_kib_per_req": per_req(c["wire.decode_bytes"]) / 1024,
        "wire.encode_us": us_per_call(incl, "wire.encode_frame"),
        "wire.decode_us": us_per_call(incl, "wire.decode_frame"),
        "device.send_per_req": per_req(n("device.auth_send", "device.local_send")),
        "device.deliver_per_req": per_req(n("device.deliver_frame")),
        "device.send_us": us_per_call(incl, "device.auth_send", "device.local_send"),
        "device.deliver_us": us_per_call(own, "device.deliver_frame"),
        "device.empty_poll_ratio": ratio(c["device.empty_polls"], n("device.poll")),
        "device.rejected_per_req": per_req(c["device.rejected"]),
        "device.sim_charge_us_per_req": per_req(c["device.sim_charge_ns"]) / 1e3,
        "simnet.events_per_req": per_req(n("simnet.step") - c["simnet.idle_steps"]),
        "simnet.step_us": us_per_call(own, "simnet.step"),
        "simnet.submit_us": us_per_call(own, "simnet.submit"),
        "simnet.frames_per_req": per_req(n("simnet.submit")),
        "simnet.kib_per_req": per_req(c["simnet.submit_bytes"]) / 1024,
        "simnet.retransmits_per_req": per_req(state["retransmits"]),
        "simnet.accepted_ratio": ratio(state["accepted"], state["trace_entries"]),
        "simnet.exhausted": state["exhausted"],
        "simnet.wire_sim_us_per_req": per_req(state["wire_sim_ns"]) / 1e3,
        "simnet.trace_entries_per_req": per_req(state["trace_entries"]),
        "common.sign_per_req": per_req(n("common.sign")),
        "common.sign_us": us_per_call(incl, "common.sign"),
        "common.check_per_req": per_req(n("common.check")),
        "common.check_us": us_per_call(incl, "common.check"),
        "common.check_useful_ratio": ratio(quorum * reqs, n("common.check")),
        "common.deliver_us": us_per_call(own, "common.deliver"),
        "logchain.append_per_req": per_req(n("logchain.append")),
        "logchain.append_us": us_per_call(incl, "logchain.append"),
        "logchain.digest_per_req": per_req(n("logchain.chain_digest")),
    }
    for proto in ("bft", "chain", "peerreview"):
        ours = proto == protocol
        steps = n(layers.STEP_SPANS[proto])
        m[f"{proto}.drain_rounds_per_req"] = per_req(steps / nodes) if ours else None
        m[f"{proto}.idle_step_ratio"] = (
            ratio(c[f"{proto}.idle_steps"], steps) if ours else None)
        m[f"{proto}.handler_us"] = (
            per_req(sum(own.get(x, 0) for x in layers.HANDLER_SPANS[proto])) / 1e3
            if ours else None)
    chain_ours = protocol == "chain"
    m["chain.validate_us"] = us_per_call(incl, "chain.validate_chain")
    m["chain.levels_per_req"] = per_req(c["chain.levels"]) if chain_ours else None
    entries = c["peerreview.audit_entries"]
    m["peerreview.audit_us_per_entry"] = ratio(incl.get("peerreview.audit", 0) / 1e3,
                                               entries)
    m["peerreview.audit_entries_per_req"] = (
        per_req(entries) if protocol == "peerreview" else None)
    m["state.retained_per_req"] = per_req(state["retained"])
    for layer in META["layers"]:
        m[f"{layer}.self_share"] = layer_self.get(layer, 0) / wall_ns
    m["trace.overhead_ratio"] = overhead_ratio
    m["trace.coverage"] = top_ns / wall_ns
    return m


def measure(name, seed, seconds, trace, episodes=None, size=None):
    """One run of one workload. Returns (metrics, episodes)."""
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, size or workload.size)
    if not trace:
        eps = run_episodes(workload, seed, inputs, seconds, episodes)
        return end_to_end(eps), eps
    # The untraced baseline for trace.overhead_ratio, then a fixed number of
    # traced episodes: every episode replays the same inputs, so the counts
    # per request do not depend on how many are traced.
    base = run_episodes(workload, seed, inputs, seconds / 2, episodes)
    tracer = layers.Tracer()
    with layers.traced_layers(tracer):
        traced = run_episodes(workload, seed, inputs, 0, episodes or TRACED_EPISODES,
                              tracer)
    overhead = (statistics.median(e.run_s for e in traced)
                / statistics.median(e.run_s for e in base[1:]))
    metrics = layer_metrics(tracer, traced, workload.protocol, overhead)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT_DIR / f"{name}.spans.jsonl.gz")
    return metrics, base + traced


def report(name, seed, trace, metrics, eps) -> None:
    kind = "per_layer" if trace else "end_to_end"
    attempted = sum(e.attempted for e in eps)
    failed = sum(e.failed for e in eps)
    lat = sum(len(e.host_lat_us) for e in eps[1:])
    print(f"== {name} seed={seed} {'traced' if trace else 'untraced'}: "
          f"{len(eps)} episodes, {attempted} requests attempted, {failed} failed, "
          f"{lat} latency samples after the warm-up episode")
    for metric, meta in META[kind].items():
        value = metrics[metric]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {metric:34s} {shown:>12s} {meta['unit']:6s} "
              f"{meta['clock']:4s} {meta['better']}")


def result_line(metrics, eps, names_units) -> dict:
    attempted = sum(e.attempted for e in eps)
    failed = sum(e.failed for e in eps)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": metrics[m], "unit": u} for m, u in names_units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(default: both, one after the other)")
    args = parser.parse_args(argv)

    if args.workload != "all" and args.trace is not None:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        kind = "per_layer" if args.trace else "end_to_end"
        metrics, eps = measure(args.workload, args.seed, args.seconds, args.trace)
        report(args.workload, args.seed, args.trace, metrics, eps)
        line = result_line(metrics, eps, [(m["name"], m["unit"]) for m in bench[kind]])
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    # Each run in a process of its own, so that each reports its own peak memory.
    names = [args.workload] if args.workload != "all" else list(WORKLOADS)
    modes = [args.trace] if args.trace is not None else [0, 1]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in modes:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            out = proc.stdout.splitlines()
            print("\n".join(out[:-1]), flush=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not out:
                summary["correct"] = False
            if not out:
                continue
            line = json.loads(out[-1])
            summary["attempted"] += line["attempted"]
            summary["failed"] += line["failed"]
            summary["metrics"].update(
                {f"{name}/{m}": v for m, v in line["metrics"].items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
