"""Accountability: witness audits, deviation exposure, chain breaks."""

import pytest

from attestnet.protocols.peerreview import (
    ENTRY_EXEC,
    ENTRY_RECV,
    MutatingChild,
    PrScenario,
    VERDICT_CHAIN_BREAK,
    VERDICT_CONSISTENT,
    VERDICT_EXPOSED,
    PrChild,
    Verdict,
    Witness,
    reference_execute,
    rewrite_log_entry,
)
from attestnet.scenario import run_scenario


def test_honest_stream_consistent_throughout():
    scenario = PrScenario.build(seed=1, n_children=2)
    for i in range(20):
        scenario.root.send(b"cmd-%02d" % i)
        scenario.drain()
        verdicts = scenario.audit_all()
        assert all(v.kind == VERDICT_CONSISTENT for v in verdicts.values())
    for child_id, witness in scenario.witnesses.items():
        assert witness.audited_seq == len(scenario.children[child_id].log)
        assert witness.expected_state["processed"] == 20


def test_root_collects_attested_responses():
    scenario = PrScenario.build(seed=2, n_children=2)
    scenario.run_rounds([b"alpha", b"beta"])
    for child_id in scenario.children:
        assert len(scenario.root.responses[child_id]) == 2


def test_mutated_result_exposed_at_seq():
    scenario = PrScenario.build(
        seed=3, n_children=2,
        child_cls_at={2: MutatingChild},
        child_kwargs_at={2: {"mutate_round": 2}})
    scenario.run_rounds([b"one", b"two", b"three"])
    verdicts = scenario.audit_all()
    assert verdicts[2].kind == VERDICT_EXPOSED
    assert verdicts[3].kind == VERDICT_CONSISTENT
    # oracle: the reference execution of the mutated command
    assert verdicts[2].expected == reference_execute(b"two")
    assert verdicts[2].found.startswith(b"lie:")


def test_rewritten_history_breaks_chain_at_first_altered_entry():
    scenario = PrScenario.build(seed=4, n_children=1)
    scenario.run_rounds([b"a", b"b", b"c"])
    child = scenario.children[2]
    rewrite_log_entry(child, 1, b"\x52fabricated")
    verdict = scenario.witnesses[2].audit()
    assert verdict.kind == VERDICT_CHAIN_BREAK
    assert verdict.seq == child.log.entries[1].seq


def test_altered_tag_breaks_chain_though_the_digests_still_link():
    # chain_digest covers ctx and seq but not the tag: only the witness's tag
    # check sees an entry whose tag alone was changed.
    scenario = PrScenario.build(seed=4, n_children=1)
    scenario.run_rounds([b"a", b"b", b"c"])
    entry = scenario.children[2].log.entries[1]
    entry.tag = bytes([entry.tag[0] ^ 1]) + entry.tag[1:]
    verdict = scenario.witnesses[2].audit()
    assert verdict.kind == VERDICT_CHAIN_BREAK
    assert verdict.seq == entry.seq


def test_audit_is_incremental():
    scenario = PrScenario.build(seed=6, n_children=1)
    scenario.run_rounds([b"first"])
    witness = scenario.witnesses[2]
    v1 = witness.audit()
    assert v1.kind == VERDICT_CONSISTENT
    tail_after_one = witness.audited_seq
    scenario.run_rounds([b"second"])
    v2 = witness.audit()
    assert v2.kind == VERDICT_CONSISTENT
    assert witness.audited_seq > tail_after_one


def test_deviation_after_audited_prefix_still_caught():
    scenario = PrScenario.build(
        seed=7, n_children=1,
        child_cls_at={2: MutatingChild},
        child_kwargs_at={2: {"mutate_round": 3}})
    scenario.run_rounds([b"r1", b"r2"])
    assert scenario.witnesses[2].audit().kind == VERDICT_CONSISTENT
    scenario.run_rounds([b"r3"])
    assert scenario.witnesses[2].audit().kind == VERDICT_EXPOSED


def test_mutation_past_the_last_round_is_judged_as_an_honest_run():
    spec = {"protocol": "peerreview", "rounds": 2,
            "attack": {"kind": "mutate_result", "node": 2, "round": 5}}
    result = run_scenario(spec)
    assert [line["verdict"] for line in result.lines[:-1]] == [VERDICT_CONSISTENT] * 2
    assert result.ok and result.lines[-1]["ok"]


def test_mutation_in_the_run_must_still_be_exposed(monkeypatch):
    spec = {"protocol": "peerreview", "rounds": 2,
            "attack": {"kind": "mutate_result", "node": 2, "round": 1}}
    result = run_scenario(spec)
    assert result.lines[0]["verdict"] == VERDICT_EXPOSED
    assert result.ok
    # A target that deviated yet audits consistent fails the run.
    audit = Witness.audit
    monkeypatch.setattr(Witness, "audit", lambda self: Verdict(VERDICT_CONSISTENT)
                        if self.node.node_id == 2 else audit(self))
    assert not run_scenario(spec).ok


def test_scenario_attack_with_an_honest_child_exposed_is_not_ok(monkeypatch):
    spec = {"protocol": "peerreview", "children": 3, "rounds": 2,
            "attack": {"kind": "mutate_result", "node": 2, "round": 1}}
    assert run_scenario(spec).ok
    audit = Witness.audit

    def exposing(self):
        verdict = audit(self)
        if self.node.node_id == 3:
            return Verdict(VERDICT_EXPOSED, seq=0)
        return verdict

    monkeypatch.setattr(Witness, "audit", exposing)
    result = run_scenario(spec)
    verdicts = {line["node"]: line["verdict"] for line in result.lines[:-1]}
    assert verdicts == {2: VERDICT_EXPOSED, 3: VERDICT_EXPOSED,
                        4: VERDICT_CONSISTENT}
    assert not result.ok and not result.lines[-1]["ok"]


class GarblingChild(PrChild):
    """Byzantine child: logs, correctly chained and attested, `garble(ctx)`
    in place of its first entry of one kind."""

    def __init__(self, *args, kind: int, garble, **kwargs):
        super().__init__(*args, **kwargs)
        self.kind, self.garble = kind, garble

    def _log(self, ctx: bytes):
        if ctx[0] == self.kind and self.garble is not None:
            ctx, self.garble = self.garble(ctx), None
        return super()._log(ctx)


@pytest.mark.parametrize("kind, garble, seq", [
    (ENTRY_RECV, lambda ctx: b"\x52garbage", 0),
    (ENTRY_RECV, lambda ctx: b"", 0),
    (ENTRY_EXEC, lambda ctx: ctx[:-3], 1),
    (ENTRY_EXEC, lambda ctx: ctx[:3], 1),
    (ENTRY_EXEC, lambda ctx: ctx + b"\x00", 1),
], ids=["garbage-recv", "empty-entry", "truncated-exec", "exec-without-lengths",
        "exec-with-trailing-byte"])
def test_logged_entry_that_does_not_decode_is_exposed(kind, garble, seq):
    scenario = PrScenario.build(seed=8, n_children=2, child_cls_at={2: GarblingChild},
                                child_kwargs_at={2: {"kind": kind, "garble": garble}})
    scenario.run_rounds([b"one", b"two"])
    verdicts = scenario.audit_all()
    assert verdicts[2].kind == VERDICT_EXPOSED and verdicts[2].seq == seq
    assert verdicts[3].kind == VERDICT_CONSISTENT
