"""Tests of the benchmark itself, at a tiny size: python3 -m pytest perfbench"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import run as bench
from workloads import WORKLOADS

TINY = {"bft_clients4": 8, "cr_n5_batch16": 4, "pr_lossy_audit": 70}
NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCH = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name, trace, seed=1):
    return bench.measure(name, seed, 0, trace, episodes=2, size=TINY[name])


@pytest.fixture(scope="module")
def traced():
    return {name: tiny(name, 1)[0] for name in WORKLOADS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_named_metric_is_reported(name, traced):
    metrics, eps = tiny(name, 0)
    assert set(metrics) == set(bench.META["end_to_end"])
    assert set(traced[name]) == set(bench.META["per_layer"])
    assert all(e.failed == 0 for e in eps)
    for kind, values in (("end_to_end", metrics), ("per_layer", traced[name])):
        for entry in BENCH[kind]:
            meta = bench.META[kind][entry["name"]]
            assert (entry["unit"], entry["better"]) == (meta["unit"], meta["better"])
            assert isinstance(values[entry["name"]], (int, float))


def test_metric_and_workload_names():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(WORKLOADS) == list(bench.META["workloads"])
    for kind in ("end_to_end", "per_layer"):
        names += [m["name"] for m in BENCH[kind]] + list(bench.META[kind])
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())


def test_hand_derived_counts(traced):
    bft = traced["bft_clients4"]
    assert bft["kernel.tag_calls_per_req"] == 21
    assert bft["common.check_per_req"] == 12
    assert bft["common.sign_per_req"] == 3
    assert bft["device.sim_charge_us_per_req"] == 483
    assert traced["cr_n5_batch16"]["common.sign_per_req"] == 5
    assert traced["cr_n5_batch16"]["chain.levels_per_req"] == 10
    pr = traced["pr_lossy_audit"]
    assert pr["kernel.rejects_per_req"] > 0 and pr["simnet.exhausted"] == 0
    assert pr["common.check_us"] is None and pr["bft.handler_us"] is None


def _exact(metrics, kind):
    return {k: v for k, v in metrics.items() if bench.META[kind][k]["clock"] != "host"}


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_sim_results_and_counts(name, traced):
    first, _ = tiny(name, 0)
    second, _ = tiny(name, 0)
    assert _exact(first, "end_to_end") == _exact(second, "end_to_end")
    again, _ = tiny(name, 1)
    assert _exact(again, "per_layer") == _exact(traced[name], "per_layer")
    other, eps = tiny(name, 0, seed=2)
    assert other["failed_share"] == 0 and all(e.failed == 0 for e in eps)


@pytest.mark.parametrize("name", ["bft_clients4", "cr_n5_batch16"])
def test_gates_fire_against_a_byzantine_node(name):
    """WrongValueLeader (BFT) and LyingMiddle (CR) make requests fail."""
    workload = WORKLOADS[name]
    ep = workload.episode(3, workload.inputs(3, TINY[name]), byzantine=True)
    assert 0 < ep.failed <= ep.attempted


def test_fails_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bft_clients4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
