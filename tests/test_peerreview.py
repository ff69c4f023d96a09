"""Accountability: witness audits, deviation exposure, chain breaks."""

import pytest

from attestnet import kernel
from attestnet.bench import CSV_HEADER, DELAY_PRESETS_NS, run_bench
from attestnet.device import pack_batch, pack_pair, unpack_batch, unpack_pair
from attestnet.errors import OutOfRange, UnknownSession, WrongSessionRole
from attestnet.protocols import peerreview
from attestnet.kernel import TAG_LEN, AttestedMessage
from attestnet.protocols.common import log_session, transport_session
from attestnet.protocols.logchain import TamperEvidentLog
from attestnet.protocols.peerreview import (
    ENTRY_EXEC,
    ENTRY_RECV,
    ENTRY_SENT,
    MutatingChild,
    PrScenario,
    VERDICT_CHAIN_BREAK,
    VERDICT_CONSISTENT,
    VERDICT_EXPOSED,
    PrChild,
    PrRoot,
    Verdict,
    Witness,
    encode_exec,
    reference_execute,
    rewrite_log_entry,
)
from attestnet.scenario import run_scenario
from attestnet.wire import decode_frame, encode_frame
from test_device import role_blind


def test_honest_stream_consistent_throughout():
    scenario = PrScenario.build(seed=1, n_children=2)
    for i in range(20):
        scenario.root.send(b"cmd-%02d" % i)
        scenario.drain()
        verdicts = scenario.audit_all()
        assert all(v.kind == VERDICT_CONSISTENT for v in verdicts.values())
    for child_id, child in scenario.children.items():
        assert scenario.witnesses[child_id].audited_seq == len(child.log)
        assert scenario.witnesses[child_id].audited_seq == 20   # one entry a command
    # a SENT and a RECV entry a round
    assert scenario.witnesses[1].audited_seq == len(scenario.root.log) == 20 * 2


@pytest.mark.parametrize("children", [1, 2, 3])
def test_a_clean_round_attests_one_log_entry_per_step(children, monkeypatch):
    """With c children a round computes the root's c sends and one SENT
    entry; each child's check of its command, its EXEC entry and its answer;
    and the root's c checks of the answers and one RECV entry: 5c+2 tags,
    c+2 of them log entries."""
    scenario = PrScenario.build(seed=1, n_children=children)
    logs = [scenario.root.log, *(child.log for child in scenario.children.values())]
    tags = []
    compute_tag = kernel.compute_tag
    monkeypatch.setattr(kernel, "compute_tag",
                        lambda *args: tags.append(args) or compute_tag(*args))
    scenario.run_rounds([b"cmd"])
    assert len(tags) == 5 * children + 2
    assert [len(log) for log in logs] == [2] + [1] * children


@pytest.mark.parametrize("delay_model", ["tnic", "sgx"])
def test_bench_charges_a_round_one_attest_delay_per_tag(delay_model):
    # `attestnet bench` runs PeerReview with 2 children: 5·2 + 2 tags a round.
    row = dict(zip(CSV_HEADER, run_bench(protocol="peerreview", delay_model=delay_model,
                                         batch=1, payload=64, requests=4, seed=0)))
    assert float(row["latency_p99_us"]) * 1000 == 12 * DELAY_PRESETS_NS[delay_model]


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
    rewrite_log_entry(child, 1, b"\x58fabricated")
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
    assert scenario.audit_all()[2].kind == VERDICT_CONSISTENT
    log = scenario.children[2].log
    assert log.first == 2 and log.entries == []
    scenario.run_rounds([b"r3"])
    verdict = scenario.audit_all()[2]
    assert verdict.kind == VERDICT_EXPOSED
    assert verdict.seq == 2 and verdict.expected == reference_execute(b"r3")
    assert [e.seq for e in log.entries] == [2]   # kept as evidence


def test_mutation_past_the_last_round_is_judged_as_an_honest_run():
    spec = {"protocol": "peerreview", "rounds": 2,
            "attack": {"kind": "mutate_result", "node": 2, "round": 5}}
    result = run_scenario(spec)
    assert [line["verdict"] for line in result.lines[:-1]] == [VERDICT_CONSISTENT] * 3
    assert result.ok and result.lines[-1]["ok"]


def test_mutation_in_the_run_must_still_be_exposed(monkeypatch):
    spec = {"protocol": "peerreview", "rounds": 2,
            "attack": {"kind": "mutate_result", "node": 2, "round": 1}}
    result = run_scenario(spec)
    assert {line["node"]: line["verdict"] for line in result.lines[:-1]} == {
        1: VERDICT_CONSISTENT, 2: VERDICT_EXPOSED, 3: VERDICT_CONSISTENT}
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
    assert verdicts == {1: VERDICT_CONSISTENT, 2: VERDICT_EXPOSED,
                        3: VERDICT_EXPOSED, 4: VERDICT_CONSISTENT}
    assert not result.ok and not result.lines[-1]["ok"]


class Garbling:
    """Byzantine node: logs, correctly chained and attested, `garble(ctx)`
    in place of its first entry of one kind."""

    def __init__(self, *args, kind: int, garble, **kwargs):
        super().__init__(*args, **kwargs)
        attest = self.log.attest

        def garbling_attest(ctx: bytes):
            nonlocal garble
            if ctx[0] == kind and garble is not None:
                ctx, garble = garble(ctx), None
            return attest(ctx)
        self.log.attest = garbling_attest


class GarblingChild(Garbling, PrChild):
    pass


def _reframed(ctx: bytes, **fields) -> bytes:
    """An EXEC entry, the frame that carried its command with `fields`
    replaced."""
    result, frame = unpack_pair(ctx[1:])
    return ctx[:1] + pack_pair(result, encode_frame(decode_frame(frame)._replace(**fields)))


# A child logs one EXEC entry a command, its first at seq 0; "recv" in an id
# names the received frame that entry carries.
@pytest.mark.parametrize("garble", [
    lambda ctx: b"\x52garbage",
    lambda ctx: b"\x58garbage",
    lambda ctx: b"",
    lambda ctx: ctx[:-3],
    lambda ctx: ctx[:3],
    lambda ctx: ctx + b"\x00",
    lambda ctx: _reframed(ctx, tag=bytes(TAG_LEN)),
    lambda ctx: _reframed(ctx, session=transport_session(1, 3)),
    lambda ctx: _reframed(ctx, counter=decode_frame(unpack_pair(ctx[1:])[1]).counter + 1),
    lambda ctx: _reframed(ctx, device=2),
    lambda ctx: b"\x00" + ctx[1:],
    lambda ctx: bytes([ENTRY_RECV]) + ctx[1:],
    lambda ctx: bytes([ENTRY_SENT]) + ctx[1:],
], ids=["garbage-recv", "garbage-exec", "empty-entry", "truncated-exec",
        "exec-without-lengths", "exec-with-trailing-byte", "zero-tag-recv",
        "recv-on-another-session", "recv-counter-skipped", "own-frame-as-recv",
        "recv-under-unknown-kind", "exec-as-recv", "recv-as-sent"])
def test_logged_entry_that_does_not_decode_is_exposed(garble):
    scenario = PrScenario.build(seed=8, n_children=2, child_cls_at={2: GarblingChild},
                                child_kwargs_at={2: {"kind": ENTRY_EXEC, "garble": garble}})
    scenario.run_rounds([b"one", b"two"])
    verdicts = scenario.audit_all()
    assert verdicts[2].kind == VERDICT_EXPOSED and verdicts[2].seq == 0
    assert verdicts[3].kind == VERDICT_CONSISTENT


class ForgingChild(PrChild):
    """Byzantine child: after its first command, it logs the execution of a
    command the root never sent, in a frame with an all-zero tag, and
    answers it."""

    def step(self) -> bool:
        progressed = super().step()
        if len(self.log) == 1:
            frame = self.forged()
            entry = self.log.attest(encode_exec(self.execute(frame.payload),
                                                encode_frame(frame)))
            self.endpoint.auth_send(self.session, encode_frame(entry))
        return progressed

    def forged(self) -> AttestedMessage:
        return AttestedMessage(bytes(TAG_LEN), b"forged-cmd", 1, self.session, 1)


class SiblingFrameChild(ForgingChild):
    """Byzantine child: its forged frame is the root's frame to another child,
    lifted off the wire with its valid tag."""

    def forged(self) -> AttestedMessage:
        return next(decode_frame(event.frame) for event in self.cluster.net.trace
                    if event.src == 1 and event.dst != self.node_id)


class JunkChild(PrChild):
    """Byzantine child: after its first command, it logs an entry of a kind
    no spec has."""

    def step(self) -> bool:
        progressed = super().step()
        if len(self.log) == 1:
            self.log.attest(b"\x00junk")
        return progressed


class SendLoggingChild(PrChild):
    """Byzantine child: logs a SENT entry of each answer it sends, a frame
    the shared frame check passes but the child spec does not have."""

    def __init__(self, *args):
        super().__init__(*args)
        auth_send = self.endpoint.auth_send

        def logging_send(session, payload):
            sent = auth_send(session, payload)
            self.log.attest(bytes([ENTRY_SENT]) + encode_frame(sent))
            return sent
        self.endpoint.auth_send = logging_send


@pytest.mark.parametrize("child_cls", [ForgingChild, SiblingFrameChild, JunkChild,
                                       SendLoggingChild])
def test_entry_off_the_child_spec_is_exposed_at_its_seq(child_cls):
    scenario = PrScenario.build(seed=1, n_children=2, child_cls_at={2: child_cls})
    scenario.run_rounds([b"one"])
    verdicts = scenario.audit_all()
    assert verdicts[2].kind == VERDICT_EXPOSED and verdicts[2].seq == 1
    assert verdicts[1].consistent and verdicts[3].consistent


def checkpointed(seed: int, rounds: int = 3) -> PrScenario:
    """One child, `rounds` rounds, then a consistent audit: its checkpoint."""
    scenario = PrScenario.build(seed=seed, n_children=1)
    scenario.run_rounds([b"pre-%d" % r for r in range(rounds)])
    assert scenario.audit_all()[2].consistent
    return scenario


def test_consistent_audit_drops_what_the_witness_audited():
    scenario = checkpointed(seed=9)
    log, witness = scenario.children[2].log, scenario.witnesses[2]
    assert len(log) == witness.audited_seq == 3
    assert log.first == 3 and log.entries == []
    assert log.anchor == witness._prev_digest

    scenario.run_rounds([b"post-0", b"post-1"])
    assert len(log) == 5 and [e.seq for e in log.entries] == [3, 4]
    for out_of_range in (lambda: log.entry(2), lambda: log.entry(5),
                         lambda: log.truncate(2), lambda: log.truncate(6)):
        with pytest.raises(OutOfRange):
            out_of_range()
    assert scenario.audit_all()[2].consistent
    assert witness.audited_seq == log.first == len(log) == 5    # commands run


def test_rewriting_a_retained_entry_breaks_chain_at_its_seq():
    scenario = checkpointed(seed=10)
    scenario.run_rounds([b"post-0", b"post-1"])
    rewrite_log_entry(scenario.children[2], 4, b"\x58fabricated")
    verdict = scenario.audit_all()[2]
    assert verdict.kind == VERDICT_CHAIN_BREAK and verdict.seq == 4


def test_altered_anchor_breaks_chain_at_the_first_entry_after_the_checkpoint():
    scenario = checkpointed(seed=11)
    log = scenario.children[2].log
    log.anchor = bytes([log.anchor[0] ^ 1]) + log.anchor[1:]
    scenario.run_rounds([b"post-0"])
    verdict = scenario.audit_all()[2]
    assert verdict.kind == VERDICT_CHAIN_BREAK and verdict.seq == 3


def test_entries_dropped_before_their_audit_break_the_chain():
    scenario = checkpointed(seed=12)
    scenario.run_rounds([b"post-0"])
    log = scenario.children[2].log
    log.truncate(len(log))          # the child drops what was never audited
    verdict = scenario.witnesses[2].audit()
    assert verdict.kind == VERDICT_CHAIN_BREAK and verdict.seq == 3


def test_an_inconsistent_verdict_truncates_nothing():
    scenario = PrScenario.build(seed=13, n_children=3, child_cls_at={2: MutatingChild},
                                child_kwargs_at={2: {"mutate_round": 2}})
    scenario.run_rounds([b"one", b"two", b"three"])
    rewrite_log_entry(scenario.children[3], 2, b"\x58fabricated")
    verdicts = scenario.audit_all()
    assert {c: v.kind for c, v in verdicts.items()} == {
        1: VERDICT_CONSISTENT, 2: VERDICT_EXPOSED, 3: VERDICT_CHAIN_BREAK,
        4: VERDICT_CONSISTENT}
    assert {c: (child.log.first, len(child.log.entries))
            for c, child in scenario.children.items()} == {2: (0, 3), 3: (0, 3), 4: (3, 0)}


def test_soak_a_child_keeps_at_most_one_audit_period_of_entries():
    """PeerReview 1+3 for 20 audit periods of 64 rounds; each child logs 1
    entry a round, so a checkpoint every period bounds what it keeps."""
    period, periods = 64, 20
    scenario = PrScenario.build(seed=14, n_children=3)
    most = 0
    for r in range(1, period * periods + 1):
        scenario.run_rounds([b"cmd-%d" % r])
        most = max(most, *(len(c.log.entries) for c in scenario.children.values()))
        if r % period == 0:
            assert all(v.consistent for v in scenario.audit_all().values())
    assert most == period           # reached just before each checkpoint
    for child_id, child in scenario.children.items():
        assert len(child.log) == scenario.witnesses[child_id].audited_seq == r
        assert child.log.entries == []


def test_soak_the_root_keeps_at_most_one_audit_period_of_entries():
    """The root logs 2 entries a round with 3 children (a SENT batch and a
    RECV batch); its witness checkpoints it like a child's."""
    period, periods = 64, 20
    scenario = PrScenario.build(seed=15, n_children=3)
    root, most = scenario.root, 0
    for r in range(1, period * periods + 1):
        scenario.run_rounds([b"cmd-%d" % r])
        most = max(most, len(root.log.entries))
        if r % period == 0:
            assert all(v.consistent for v in scenario.audit_all().values())
    assert most == 2 * period       # reached just before each checkpoint
    assert len(root.log) == scenario.witnesses[1].audited_seq == 2 * r
    assert root.log.entries == []


def test_a_second_writer_on_a_log_session_stops_the_log():
    # Every attestation on a log's session takes the log's next seq: one made
    # outside the log leaves a gap, and the log refuses its next entry.
    scenario = PrScenario.build(seed=1, n_children=1)
    scenario.run_rounds([b"one"])
    child = scenario.children[2]
    log = child.log
    assert scenario.audit_all()[2].consistent     # checkpointed at the tail
    tail = len(log)
    with pytest.raises(OutOfRange, match=f"at seq {tail - 1}, but the next seq is {tail}"):
        log.append(tail - 1, b"\x00repeat", bytes(TAG_LEN))    # a repeated counter
    assert len(log) == tail and log.entries == []
    log.attest(b"\x00inside")           # the refusal stored nothing: the tail is free
    assert [e.seq for e in log.entries] == [tail]
    child.endpoint.local_send(log_session(2), b"\x00outside")
    with pytest.raises(OutOfRange, match=f"at seq {tail + 2}, but the next seq is {tail + 1}"):
        log.attest(b"\x00inside")
    assert len(log) == tail + 1 and [e.seq for e in log.entries] == [tail]


class ReseatedChild(PrChild):
    """Byzantine child: it answers every command with a lie attested on its
    own log session, and shows its witness an honest history attested on
    the root's log session, whose counters it has never used. Only a
    role-blind kernel lets it attest there."""

    def __init__(self, *args):
        super().__init__(*args)
        self.answers = self.log
        self.log = TamperEvidentLog(self.endpoint, log_session(1))

    def step(self) -> bool:
        progressed = False
        for msg in self.endpoint.poll(self.session):
            progressed = True
            self.log.attest(encode_exec(self.execute(msg.payload), encode_frame(msg)))
            lie = self.answers.attest(encode_exec(b"lie", encode_frame(msg)))
            self.endpoint.auth_send(self.session, encode_frame(lie))
        return progressed


def test_a_log_reseated_on_another_log_session_breaks_the_chain():
    # On a role-blind kernel the reseat reaches the witness, whose (device,
    # log session) pin breaks the chain.
    scenario = PrScenario.build(seed=1, n_children=2, child_cls_at={2: ReseatedChild})
    role_blind(scenario.children[2].endpoint)
    scenario.run_rounds([b"one", b"two"])
    answers = [decode_frame(r) for r in scenario.root.responses[2]]
    assert [(a.session, a.counter) for a in answers] == [(log_session(2), 0),
                                                         (log_session(2), 1)]
    assert all(scenario.root.endpoint.kernel.tag_matches(a) for a in answers)
    verdicts = scenario.audit_all()
    assert verdicts[2].kind == VERDICT_CHAIN_BREAK and verdicts[2].seq == 0
    assert verdicts[1].consistent and verdicts[3].consistent
    assert scenario.children[2].log.first == 0      # nothing checkpointed


def test_the_kernel_refuses_a_reseated_log_at_its_first_attestation():
    scenario = PrScenario.build(seed=1, n_children=2, child_cls_at={2: ReseatedChild})
    child = scenario.children[2]
    with pytest.raises(WrongSessionRole, match="read-only on device 2"):
        scenario.run_rounds([b"one"])
    state = child.endpoint.kernel.session_state(log_session(1))
    assert (state.send_cnt, len(child.log), len(child.answers)) == (0, 0, 0)


def test_a_log_on_a_session_its_endpoint_does_not_hold_is_refused():
    scenario = PrScenario.build(seed=1, n_children=1)
    with pytest.raises(UnknownSession):
        TamperEvidentLog(scenario.root.endpoint, log_session(9))


def test_a_root_needs_a_child():
    with pytest.raises(ValueError, match="needs a child, got 0"):
        PrScenario.build(n_children=0)


class EquivocatingRoot(PrRoot):
    """Byzantine root: sends its last child b"other" in place of b"two", and
    logs what it sent."""

    hide = False    # log the frame as if it carried b"two", under b"other"'s tag

    def send(self, ctx: bytes) -> None:
        frames = []
        for child, session in self.sessions.items():
            body = b"other" if ctx == b"two" and child == self.children[-1] else ctx
            sent = self.endpoint.auth_send(session, body)
            if self.hide:
                sent = AttestedMessage(sent.tag, ctx, sent.device, sent.session,
                                       sent.counter)
            frames.append(encode_frame(sent))
        self.log.attest(bytes([ENTRY_SENT]) + pack_batch(frames))


class HidingRoot(EquivocatingRoot):
    hide = True


class SilentRoot(PrRoot):
    """Byzantine root: before round 2 it sends its second child an extra
    command that it never logs."""

    def send(self, ctx: bytes) -> None:
        if ctx == b"two":
            self.endpoint.auth_send(self.sessions[self.children[1]], b"hidden")
        super().send(ctx)


class ReorderingRoot(PrRoot):
    """Byzantine root: sends round 2 to its children in reverse order, and
    logs what it sent."""

    def send(self, ctx: bytes) -> None:
        order = self.sessions
        if ctx == b"two":
            self.sessions = dict(reversed(order.items()))
        super().send(ctx)
        self.sessions = order


# Round 1 logs seqs 0 (SENT) and 1 (RECV); round 2's SENT is seq 2.
@pytest.mark.parametrize("root_cls, expected, found", [
    (EquivocatingRoot, b"two", b"other"),
    (HidingRoot, None, None),
    (SilentRoot, None, None),
    (ReorderingRoot, None, None),
], ids=["logged-equivocation", "command-never-attested", "counter-skipped",
        "children-out-of-order"])
def test_byzantine_root_is_exposed_while_every_child_is_consistent(
        monkeypatch, root_cls, expected, found):
    monkeypatch.setattr(peerreview, "PrRoot", root_cls)
    scenario = PrScenario.build(seed=16, n_children=3)
    scenario.run_rounds([b"one", b"two", b"three"])
    verdicts = scenario.audit_all()
    assert verdicts[1].kind == VERDICT_EXPOSED and verdicts[1].seq == 2
    assert (verdicts[1].expected, verdicts[1].found) == (expected, found)
    assert all(verdicts[c].consistent for c in scenario.children)
    log = scenario.root.log
    assert log.first == 0 and len(log.entries) == len(log) == 6


def test_rewritten_root_entry_breaks_chain_at_its_seq():
    scenario = PrScenario.build(seed=17, n_children=2)
    scenario.run_rounds([b"a", b"b", b"c"])
    rewrite_log_entry(scenario.root, 5, b"\x53fabricated")
    verdicts = scenario.audit_all()
    assert verdicts[1].kind == VERDICT_CHAIN_BREAK and verdicts[1].seq == 5
    assert all(verdicts[c].consistent for c in scenario.children)


def test_an_inconsistent_root_verdict_truncates_nothing():
    scenario = PrScenario.build(seed=18, n_children=2)
    scenario.run_rounds([b"pre-0", b"pre-1"])
    assert all(v.consistent for v in scenario.audit_all().values())
    log = scenario.root.log
    assert log.first == len(log) == 4 and log.entries == []
    scenario.run_rounds([b"post-0", b"post-1"])
    rewrite_log_entry(scenario.root, 6, b"\x53fabricated")
    assert scenario.audit_all()[1].kind == VERDICT_CHAIN_BREAK
    assert log.first == 4 and [e.seq for e in log.entries] == list(range(4, 8))
    assert all(c.log.entries == [] for c in scenario.children.values())


class GarblingRoot(Garbling, PrRoot):
    pass


def _rebatched(ctx: bytes, pick) -> bytes:
    """A SENT or RECV entry, its batch of frames replaced by `pick(frames)`."""
    return ctx[:1] + pack_batch(pick(unpack_batch(ctx[1:])))


# With 2 children, round 1 logs its SENT batch at seq 0 and its RECV batch at 1.
@pytest.mark.parametrize("kind, garble, seq", [
    (ENTRY_SENT, lambda ctx: b"", 0),
    (ENTRY_SENT, lambda ctx: encode_exec(b"ack:x", b"x"), 0),
    (ENTRY_SENT, lambda ctx: bytes([ENTRY_EXEC]) + ctx[1:], 0),
    (ENTRY_SENT, lambda ctx: b"\x53garbage", 0),
    (ENTRY_SENT, lambda ctx: _rebatched(ctx, lambda frames: frames[::-1]), 0),
    (ENTRY_SENT, lambda ctx: _rebatched(ctx, lambda frames: frames[:-1]), 0),
    (ENTRY_SENT, lambda ctx: _rebatched(ctx, lambda frames: frames[:1] * 2), 0),
    (ENTRY_SENT, lambda ctx: _rebatched(ctx, lambda frames: frames + frames[:1]), 0),
    (ENTRY_SENT, lambda ctx: bytes([ENTRY_RECV]) + ctx[1:], 0),
    (ENTRY_RECV, lambda ctx: b"\x52garbage", 1),
    (ENTRY_RECV, lambda ctx: _rebatched(ctx, lambda frames: []), 1),
    (ENTRY_RECV, lambda ctx: _rebatched(ctx, lambda frames: frames + frames[:1]), 1),
    (ENTRY_RECV, lambda ctx: b"\x00" + ctx[1:], 1),
    (ENTRY_RECV, lambda ctx: bytes([ENTRY_SENT]) + ctx[1:], 1),
], ids=["empty-entry", "exec-entry", "frame-as-exec", "garbage-sent", "sent-out-of-order",
        "sent-leaves-out-a-child", "sent-repeats-a-child", "sent-with-an-extra-frame",
        "own-frame-as-recv", "garbage-recv", "empty-recv", "recv-repeats-a-frame",
        "recv-under-another-kind", "child-frame-as-sent"])
def test_root_entry_off_the_root_spec_is_exposed(monkeypatch, kind, garble, seq):
    monkeypatch.setattr(peerreview, "PrRoot", lambda *args: GarblingRoot(
        *args, kind=kind, garble=garble))
    scenario = PrScenario.build(seed=19, n_children=2)
    scenario.run_rounds([b"one", b"two"])
    verdicts = scenario.audit_all()
    assert verdicts[1].kind == VERDICT_EXPOSED and verdicts[1].seq == seq
    assert all(verdicts[c].consistent for c in scenario.children)
