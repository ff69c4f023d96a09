"""The scenario sweep is byte-deterministic, and covers what it claims to."""

import json

from attestnet.scenario import ATTACK_KINDS
from attestnet.simnet import ACTION_KINDS
from sweep import draw, sweep


def test_sweep_output_is_identical_across_runs():
    first = sweep(30, 5)
    assert first == sweep(30, 5)
    assert len(first) == 30 and all(json.loads(line)["spec"] for line in first)


def test_sweep_draws_every_protocol_attack_and_fault_kind():
    specs = [draw(77, i) for i in range(300)]
    attacks = {(s["protocol"], s.get("attack", {}).get("kind", "none")) for s in specs}
    assert attacks == {(p, k) for p, kinds in ATTACK_KINDS.items()
                       for k in ("none",) + kinds}
    faults = {a["kind"] for s in specs for a in s.get("faults", {}).get("actions", [])}
    assert faults == set(ACTION_KINDS)
    lies = [s for s in specs if s.get("attack", {}).get("kind") == "lie"]
    assert any(s["attack"]["position"] == 0 for s in lies)
    assert any(s["attack"]["commit"] > s["rounds"] for s in lies)
