"""Alternating parent/change pairs of perfbench runs, written as one BENCH_*.json record.

    python3 tests/bench_pairs.py PARENT_TREE CHANGE_TREE --out BENCH_NN.json \\
        [--claim WORKLOAD/METRIC/RATIO] [--change TEXT]

Each tree is a checkout that holds `perfbench/`, `src/` and `BENCHMARK.json`
(for example, `git archive` of each commit unpacked into its own directory).
The run is fixed: 10 pairs, on seeds 1 and 7, of every workload in the change
tree's BENCHMARK.json, each run lasting its `run_seconds`. A pair runs
`perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0` once in
each tree, in fresh processes, back to back: the parent first in even pairs
and the change first in odd ones. Every workload and seed gets its pair
before the next pair starts, so a slow phase of a shared host falls on both
sides and on every workload.

For each workload, seed and metric the record holds both sides' runs, their
medians and quartiles (`statistics.quantiles`, n=4, inclusive), the parent's
interquartile range, the pairs the change won, the ratio of the medians and,
for an end-to-end metric BENCHMARK.json bounds, whether the change's median is
within its bound. `host_req_p99_us` and the number of timed episodes (the
warm-up episode excluded) are recorded, not bounded. Every simulated-time
metric must read the same in every run of both sides.

Then, once per side and workload on seed 1, the work done:
- one traced run (`--trace 1 --seconds 2`), whose deterministic metrics (clock
  `none` or `sim`) must be equal on both sides;
- the Python-level calls per request, built-ins excluded, under cProfile over
  4 episodes.

With --claim, the record's `claim` says per seed whether the change's median is
at most RATIO times the parent's, better in at least 9 of every 10 pairs, and
apart from the parent's median by more than the parent's interquartile range.
The record is rewritten after every pair, with `complete` false until the end.
"""

import argparse
import json
import math
import os
import platform
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

REPORTED = {"host_req_p99_us": "lower", "episodes": "higher"}
SEEDS = (1, 7)
PAIRS = 10
TRACED_SECONDS = 2
PROFILED_EPISODES = 4

# Run in a tree's root: Python-level calls per attempted request, built-ins
# excluded. The calls are summed over cProfile's raw entries, one per code
# object (a built-in's names it with a string), with the garbage collector off
# around each episode: `pstats` keys a function by (file, line, name), and
# keeps only one of the dataclass `__init__`s, which all read
# ("<string>", 2, "__init__").
CALLS_SCRIPT = """
import cProfile, gc, sys
sys.path[:0] = ["src", "perfbench"]
from workloads import WORKLOADS
workload, seed, episodes = WORKLOADS[sys.argv[1]], int(sys.argv[2]), int(sys.argv[3])
inputs = workload.inputs(seed, workload.size)
profile, attempted = cProfile.Profile(), 0
for _ in range(episodes):
    gc.collect()
    gc.disable()
    profile.enable()
    episode = workload.episode(seed, inputs)
    profile.disable()
    gc.enable()
    attempted += episode.attempted
calls = sum(e.callcount for e in profile.getstats() if not isinstance(e.code, str))
print(calls / attempted)
"""


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(the JSON result line, every printed metric as name -> (value, clock))
    of one `perfbench/run.py --workload` run; the printed metrics include the
    number of timed episodes, the warm-up episode excluded, as `episodes`."""
    lines = stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        if line.startswith("== "):
            printed["episodes"] = (int(line.split(": ", 1)[1].split()[0]) - 1, "none")
            continue
        fields = line.split()
        if len(fields) == 5 and line.startswith("  "):
            name, shown, _unit, clock, _better = fields
            printed[name] = (None if shown == "n/a" else float(shown), clock)
    return json.loads(lines[-1]), printed


def summarize(parent: list[float], change: list[float], better: str,
              bound: float | None = None) -> dict:
    """One metric's runs on both sides, compared pair by pair."""
    lower = better == "lower"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = statistics.quantiles(parent, n=4, method="inclusive")
    c_q = statistics.quantiles(change, n=4, method="inclusive")
    out = {
        "parent": parent, "change": change,
        "parent_median": p_med, "change_median": c_med,
        "ratio": round(c_med / p_med, 4) if p_med else None,
        "change_wins": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
        "parent_quartiles": p_q, "parent_iqr": p_q[2] - p_q[0],
        "change_quartiles": c_q,
    }
    if bound is not None:
        worse = (c_med - p_med if lower else p_med - c_med) / p_med if p_med else 0.0
        out["within_bound"] = worse <= bound
    return out


def judge_claim(summary: dict, ratio: float, better: str) -> dict:
    """Whether one seed's runs meet a claimed gain of at least 1/ratio."""
    gap = abs(summary["parent_median"] - summary["change_median"])
    pairs = len(summary["parent"])
    needed = math.ceil(0.9 * pairs)
    toward = (summary["ratio"] <= ratio if better == "lower"
              else summary["ratio"] >= 1 / ratio)
    return {
        "parent_median": summary["parent_median"],
        "change_median": summary["change_median"],
        "ratio": summary["ratio"],
        "change_wins": f"{summary['change_wins']}/{pairs}",
        "median_gap": gap,
        "parent_iqr": summary["parent_iqr"],
        "met": bool(toward and summary["change_wins"] >= needed
                    and gap > summary["parent_iqr"]),
    }


def _run(tree: Path, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=tree, capture_output=True,
                          text=True, check=False)


def _perfbench(tree: Path, workload: str, seed: int, seconds: float,
               trace: int) -> tuple[int, dict, dict]:
    proc = _run(tree, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)])
    if not proc.stdout.strip():
        sys.exit(f"bench_pairs: no output from {tree} {workload} seed {seed}:\n"
                 f"{proc.stderr}")
    line, printed = parse_run(proc.stdout)
    return proc.returncode, line, printed


def _calls_per_req(tree: Path, workload: str, seed: int) -> float:
    proc = _run(tree, ["-c", CALLS_SCRIPT, workload, str(seed), str(PROFILED_EPISODES)])
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: profiling {workload} in {tree} failed:\n{proc.stderr}")
    return round(float(proc.stdout), 2)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="WORKLOAD/METRIC/RATIO")
    parser.add_argument("--change", dest="change_text", default="",
                        help="what the change does, stored as the record's `change`")
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    gated = {m["name"]: m for m in bench["end_to_end"]}
    trees = {"parent": args.parent, "change": args.change}
    claim = None
    if args.claim:
        c_workload, c_metric, c_ratio = args.claim.split("/")
        claim = {"workload": c_workload, "metric": c_metric, "ratio": float(c_ratio)}

    # runs[workload/seed][side] = list of (exit code, result line, printed metrics)
    runs = {f"{w}/seed{s}": {"parent": [], "change": []}
            for w in workloads for s in SEEDS}
    record = {
        "change": args.change_text,
        "command": shlex.join(["python3", "tests/bench_pairs.py", *argv]),
        "run_command": (f"python3 perfbench/run.py --workload <w> --seed <s> "
                        f"--seconds {seconds:g} --trace 0"),
        "procedure": __doc__.split("\n\n", 2)[2].strip(),
        "host": (f"{os.cpu_count()}-CPU {platform.system()} {platform.machine()}, "
                 f"CPython {platform.python_version()}"),
        "bounds": {name: m["bound"] for name, m in gated.items()},
        "complete": False,
    }
    for pair in range(PAIRS):
        for key in runs:
            workload, seed = key.split("/seed")
            sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in sides:
                code, line, printed = _perfbench(trees[side], workload, int(seed),
                                                 seconds, 0)
                runs[key][side].append((code, line, printed))
                print(f"pair {pair + 1}/{PAIRS} {key} {side}: "
                      f"p90 {line['metrics']['host_req_p90_us']['value']:.1f} us, "
                      f"exit {code}", file=sys.stderr, flush=True)
        record["pairs_done"] = pair + 1
        if pair >= 1:
            record["results"] = _results(runs, gated)
            _write(args.out, record)

    record["counts"] = _counts(trees, workloads, SEEDS[0])
    if claim is not None:
        better = gated.get(claim["metric"], {}).get("better", "lower")
        claim["by_seed"] = {
            str(s): judge_claim(record["results"][f"{claim['workload']}/seed{s}"]
                                [claim["metric"]], claim["ratio"], better)
            for s in SEEDS}
        record["claim"] = claim
    record["complete"] = True
    _write(args.out, record)
    return 0


def _results(runs: dict, gated: dict) -> dict:
    results = {}
    for key, sides in runs.items():
        n = min(len(sides["parent"]), len(sides["change"]))
        out = {"pairs": n}
        for name in [*gated, *REPORTED]:
            values = {side: [_value(r, name) for r in sides[side][:n]] for side in sides}
            better = gated[name]["better"] if name in gated else REPORTED[name]
            out[name] = summarize(values["parent"], values["change"], better,
                                  gated[name]["bound"] if name in gated else None)
        every = [r for side in sides.values() for r in side[:n]]
        out["requests_per_run"] = sorted({r[1]["attempted"] for r in every})
        out["failed"] = {side: sum(r[1]["failed"] for r in sides[side][:n])
                         for side in sides}
        out["exit_codes"] = sorted({r[0] for r in every})
        sims = {json.dumps({m: v for m, (v, clock) in r[2].items() if clock == "sim"},
                           sort_keys=True) for r in every}
        out["sim_metrics"] = json.loads(next(iter(sims)))
        out["sim_metrics_identical"] = len(sims) == 1
        results[key] = out
    return results


def _value(run, name: str) -> float:
    _, line, printed = run
    if name in line["metrics"]:
        return line["metrics"][name]["value"]
    return printed[name][0]


def _counts(trees: dict, workloads: list[str], seed: int) -> dict:
    """The work each side does: deterministic traced metrics and Python calls."""
    counts = {"seed": seed, "traced_command": (
        f"python3 perfbench/run.py --workload <w> --seed {seed} "
        f"--seconds {TRACED_SECONDS} --trace 1"), "by_workload": {}}
    for workload in workloads:
        sides = {}
        for side, tree in trees.items():
            code, _, printed = _perfbench(tree, workload, seed, TRACED_SECONDS, 1)
            sides[side] = {
                "exit_code": code,
                "deterministic": {m: v for m, (v, clock) in printed.items()
                                  if clock in ("none", "sim") and m != "episodes"},
                "python_calls_per_req": _calls_per_req(tree, workload, seed),
            }
            print(f"counts {workload} {side}: "
                  f"{sides[side]['python_calls_per_req']} calls/req",
                  file=sys.stderr, flush=True)
        counts["by_workload"][workload] = {
            "deterministic_identical": (sides["parent"]["deterministic"]
                                        == sides["change"]["deterministic"]),
            **sides,
        }
    return counts


def _write(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
