"""The scenario sweep is byte-deterministic, covers what it claims to, and
reproduces the committed corpus line for line."""

import json
from pathlib import Path

import pytest

from attestnet.scenario import ATTACK_KINDS
from attestnet.simnet import ACTION_KINDS
from sweep import classify, corpus, draw, sweep

CORPUS = Path(__file__).with_name("sweep_corpus_1000_77.txt")


def test_sweep_output_is_identical_across_runs():
    first = sweep(30, 5)
    assert first == sweep(30, 5)
    assert len(first) == 30 and all(json.loads(line)["spec"] for line in first)


def test_sweep_draws_every_protocol_attack_and_fault_kind():
    specs = [draw(77, i) for i in range(300)]
    attacks = {(s["protocol"], s.get("attack", {}).get("kind", "none")) for s in specs}
    assert attacks == {(p, k) for p, kinds in ATTACK_KINDS.items()
                       for k in ("none", *kinds)}
    faults = {a["kind"] for s in specs for a in s.get("faults", {}).get("actions", [])}
    assert faults == set(ACTION_KINDS)
    lies = [s for s in specs if s.get("attack", {}).get("kind") == "lie"]
    assert any(s["attack"]["position"] == 0 for s in lies)
    assert any(s["attack"]["commit"] > s["rounds"] for s in lies)


@pytest.fixture(scope="module")
def swept() -> list[str]:
    """The sweep the committed corpus records, run once for every test here."""
    return sweep(1000, 77)


def test_sweep_reproduces_the_committed_corpus(swept):
    expected = CORPUS.read_text().splitlines()
    actual = corpus(swept)
    assert len(actual) == len(expected)
    changed = [f"{i}: {draw(77, i)}\n  was {old}\n  now {new}"
               for i, (old, new) in enumerate(zip(expected, actual)) if old != new]
    assert not changed, f"{len(changed)} corpus lines changed:\n" + "\n".join(changed)


def test_no_run_accuses_a_peer_twice(swept):
    """A BFT replica reads a peer it flagged no more, and a chain node stops
    reading its chain once it flags it, so each accuser names a peer (a CR
    flag names its position) at most once."""
    repeats = []
    for i, line in enumerate(swept):
        for out in json.loads(line).get("lines", []):
            pairs = [(fl["accuser"], fl.get("accused", fl.get("position")))
                     for fl in out.get("flags", [])]
            if len(pairs) != len(set(pairs)):
                repeats.append(f"{i}: {pairs}")
    assert not repeats, f"{len(repeats)} runs repeat a flag:\n" + "\n".join(repeats)


def test_classify_counts_the_fields_that_moved_per_protocol():
    lines = sweep(6, 5)     # a bft run, then two peerreview runs, the second bad input
    assert [json.loads(line)["spec"]["protocol"] for line in lines[:3]] == [
        "bft", "peerreview", "peerreview"]
    assert [line.split()[1] for line in corpus(lines)[:3]] == ["true", "true", "error"]
    header = "protocol changed flip error tags digest"
    assert classify(corpus(lines), lines) == ["0 of 6 corpus lines changed", header]
    old = corpus(lines)
    index, ok, tags, digest = old[0].split()
    old[0] = f"{index} {ok} {int(tags) + 1} {digest}"
    index, _, tags, _ = old[1].split()
    old[1] = f"{index} false {tags} 0000000000000000"
    index, _, tags, digest = old[2].split()
    old[2] = f"{index} true {tags} {digest}"
    assert classify(old, lines) == [
        "3 of 6 corpus lines changed", header,
        "bft 1 0 0 1 0", "peerreview 2 1 1 0 1",
        "flip 1 false -> true", "error 2 true -> error"]
