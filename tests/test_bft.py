"""BFT counter: honest runs, equivocation detection, crash forwarding, quorums."""

import json
import random
import struct

import pytest

from attestnet.checker import check_leader_strategies
from attestnet.errors import NonDeterministicSpec
from attestnet.protocols import bft
from attestnet.protocols.bft import (
    KIND_PROOF,
    BftCluster,
    BftReplica,
    EquivocatingLeader,
    Flag,
    WrongValueLeader,
    decode_inner,
    encode_inner,
)
from attestnet.protocols.common import (
    digest,
    log_session,
    reply_statement,
    transport_session,
)
from attestnet.simnet import FaultAction, FaultSchedule
from attestnet.wire import decode_frame, encode_frame
from attestnet.scenario import run_scenario


def test_honest_run_ten_increments():
    cluster = BftCluster.build(n=3, f=1, seed=1)
    client = cluster.clients[0]
    for round_id in range(1, 11):
        req = cluster.run_request(0, round_id)
        value = client.accepted_value(req)
        assert value == struct.pack(">Q", round_id)
        # quorum means at least f+1 = 2 identical replies arrived
        assert len(client.replies[req]) >= 2
    assert cluster.correct_values() == {1: 10, 2: 10, 3: 10}
    assert cluster.all_flags() == []


def test_equivocating_leader_flagged_by_correct_follower():
    cluster = BftCluster.build(n=3, f=1, seed=2,
                               leader_cls=EquivocatingLeader,
                               leader_kwargs={"equivocate_round": 2})
    client = cluster.clients[0]
    for round_id in range(1, 4):
        cluster.run_request(0, round_id)
    flags = cluster.all_flags()
    assert any(f.accused == 1 and f.reason == "equivocation" for f in flags)
    # no accepted value ever disagrees with the deterministic execution
    for req, value in client.accepted.items():
        (round_id,) = struct.unpack(">Q", value)
        assert 1 <= round_id <= 3


def test_equivocation_strategy_space_exhaustively_safe():
    # oracle for the two-follower round: enumeration over every leader
    # strategy shows conflicting applies are impossible without a flag
    report = check_leader_strategies()
    assert report.holds, report.line()


def test_follower_that_skips_local_verify_gives_a_counterexample(monkeypatch):
    # A test-only follower that re-executes every proof but never checks its
    # attestation: two conflicting proofs for round 1, one to each follower,
    # are both applied and nobody flags the leader.
    def trusting(self, sender, inner_frame):
        req, output = decode_inner(decode_frame(inner_frame).payload)
        return (req, output) if self._re_execute(sender, req, output) else None

    monkeypatch.setattr(BftReplica, "_checked_inner", trusting)
    report = check_leader_strategies()
    assert report.verdict == "Counterexample"
    assert report.counterexample.detail == (
        "conflicting round contents, emitted=[(1, b'a'), (1, b'b')],"
        " delivery [0]/[1], no flags")


def test_nondeterministic_counter_fails_the_build(monkeypatch):
    rng = random.Random(1)
    monkeypatch.setattr(bft, "counter_apply", lambda value, req: value + rng.randrange(2, 99))
    with pytest.raises(NonDeterministicSpec):
        BftCluster.build(n=3, f=1, seed=1)


def test_wrong_value_leader_exposed_and_never_committed():
    cluster = BftCluster.build(n=3, f=1, seed=3,
                               leader_cls=WrongValueLeader,
                               leader_kwargs={"lie_round": 1})
    client = cluster.clients[0]
    req = cluster.run_request(0, 1)
    assert client.accepted_value(req) is None     # lie never reaches quorum
    flags = cluster.all_flags()
    assert any(f.accused == 1 and f.reason == "state-mismatch" for f in flags)


def test_forged_copy_of_the_leaders_log_frame_accuses_nobody():
    # Every proof carries the leader's log frame in plaintext, so an adversary
    # can inject a copy of it on the wire; it lands at a follower before the
    # follower reads the proof, and must not move the counter the proof's
    # local verification checks against.
    reference = BftCluster.build(n=3, f=1, seed=4)
    reference.run_request(0, 1)
    proof = next(event.frame for event in reference.cluster.net.trace
                 if (event.src, event.dst) == (1, 2))
    inner_frame = decode_frame(proof).payload[1:]
    assert decode_frame(inner_frame).session == log_session(1)

    cluster = BftCluster.build(n=3, f=1, seed=4)
    cluster.cluster.net.install_schedule(FaultSchedule(actions=[FaultAction(
        kind="forge", session=transport_session(1, 2), sender=1, index=0,
        frame=inner_frame)]))
    req = cluster.run_request(0, 1)
    forged = [event for event in cluster.cluster.net.trace
              if event.disposition == "forged"]
    assert [(event.dst, event.accepted) for event in forged] == [(2, False)]
    assert cluster.cluster.endpoints[2].rejection_events == [
        (log_session(1), "WrongSessionRole")]
    assert all(ep.poll(session) == [] for ep in cluster.cluster.endpoints.values()
               for session in ep.sessions())
    assert cluster.all_flags() == []
    assert cluster.correct_values() == {1: 1, 2: 1, 3: 1}
    assert cluster.clients[0].accepted_value(req) == struct.pack(">Q", 1)


class MalformedProofLeader(BftReplica):
    """Byzantine leader: sends each follower a transport payload built from
    an attested inner payload by `malform`, which a correct proof is not."""

    def __init__(self, *args, malform, **kwargs):
        super().__init__(*args, **kwargs)
        self.malform = malform

    def leader_handle(self, req: bytes) -> None:
        inner = encode_inner(req, self.value + 1)
        payload = self.malform(self.endpoint, log_session(self.node_id), inner)
        for session in self.sessions.values():
            self.endpoint.auth_send(session, payload)


def _attested(endpoint, log, inner: bytes) -> bytes:
    return encode_frame(endpoint.local_send(log, inner))


MALFORMED_PROOFS = {
    "empty-payload": lambda ep, log, inner: b"",
    "inner-of-2-bytes": lambda ep, log, inner: (
        bytes([KIND_PROOF]) + _attested(ep, log, b"\x00\x01")),
    "inner-request-overruns": lambda ep, log, inner: (
        bytes([KIND_PROOF]) + _attested(ep, log, b"\xff" + inner[1:])),
}


@pytest.mark.parametrize("malform", MALFORMED_PROOFS.values(), ids=MALFORMED_PROOFS)
def test_malformed_proof_from_the_leader_is_flagged(malform):
    cluster = BftCluster.build(n=3, f=1, seed=5, leader_cls=MalformedProofLeader,
                               leader_kwargs={"malform": malform})
    req = cluster.run_request(0, 1)
    assert [(fl.accuser, fl.accused, fl.reason) for fl in cluster.all_flags()] == [
        (2, 1, "malformed-proof"), (3, 1, "malformed-proof")]
    assert cluster.clients[0].accepted_value(req) is None
    assert cluster.correct_values() == {1: 0, 2: 0, 3: 0}


class CrashAfterFirstSendLeader(BftReplica):
    """Leader that reaches only one follower before failing."""

    def leader_handle(self, req: bytes) -> None:
        from attestnet.protocols.bft import KIND_PROOF, encode_inner
        from attestnet.protocols.common import log_session, transport_session
        from attestnet.wire import encode_frame

        output = self.value + 1
        self.value = output
        self.applied.add(req)
        attested = self.endpoint.local_send(log_session(self.node_id),
                                            encode_inner(req, output))
        first_follower = self.peers[0]
        self.endpoint.auth_send(transport_session(self.node_id, first_follower),
                                bytes([KIND_PROOF]) + encode_frame(attested))
        self.crashed = True


def test_leader_crash_mid_broadcast_forwarding_closure():
    cluster = BftCluster.build(n=3, f=1, seed=4,
                               leader_cls=CrashAfterFirstSendLeader)
    client = cluster.clients[0]
    req = cluster.run_request(0, 1)
    # both correct followers applied the increment through forwarding
    assert cluster.replicas[2].value == 1
    assert cluster.replicas[3].value == 1
    # the two follower replies form the quorum despite the crashed leader
    assert client.accepted_value(req) == struct.pack(">Q", 1)


def _signed(cluster, device, req, value):
    """The reply replica `device` sends for (req, value)."""
    return cluster.cluster.keyring.sign(device, req, value,
                                        reply_statement(digest(req), digest(value)))


def test_client_quorum_two_identical_beat_one_conflicting():
    cluster = BftCluster.build(n=3, f=1, seed=5)
    client = cluster.clients[0]
    req = client.issue(1)
    good, bad = struct.pack(">Q", 1), struct.pack(">Q", 99)
    client.deliver(_signed(cluster, 1, req, bad))
    assert client.accepted_value(req) is None     # one conflicting reply
    client.deliver(_signed(cluster, 2, req, good))
    assert client.accepted_value(req) is None     # still only one good vote
    client.deliver(_signed(cluster, 3, req, good))
    assert client.accepted_value(req) == struct.pack(">Q", 1)


def test_replies_for_foreign_requests_not_counted():
    cluster = BftCluster.build(n=3, f=1, seed=6, clients=2)
    mine, theirs = cluster.clients
    req_theirs = theirs.issue(1)
    for device in (1, 2):
        mine.deliver(_signed(cluster, device, req_theirs, struct.pack(">Q", 1)))
    assert mine.accepted == {}             # never issued by this client
    assert mine.observed.get(req_theirs) == struct.pack(">Q", 1)


def test_single_reply_never_accepted():
    cluster = BftCluster.build(n=3, f=1, seed=7)
    client = cluster.clients[0]
    req = client.issue(1)
    client.deliver(_signed(cluster, 2, req, struct.pack(">Q", 1)))
    assert client.accepted_value(req) is None


def test_unsigned_reply_ignored():
    from attestnet.protocols.common import SignedReply

    cluster = BftCluster.build(n=3, f=1, seed=8)
    client = cluster.clients[0]
    req = client.issue(1)
    value = struct.pack(">Q", 1)
    client.deliver(SignedReply(device=2, req=req, value=value, signature=b"\x00" * 64))
    client.deliver(SignedReply(device=3, req=req, value=value, signature=b"\x00" * 64))
    assert client.accepted_value(req) is None
    assert client.ignored == 2


def _flag_honest_peer(monkeypatch, accuser: int, accused: int):
    """Make one follower accuse an honest peer on every validation."""
    re_execute = BftReplica._re_execute

    def accusing(self, sender, req, output):
        if self.node_id == accuser and sender == accused:
            self.flags.append(Flag(self.node_id, sender, "state-mismatch"))
        return re_execute(self, sender, req, output)

    monkeypatch.setattr(BftReplica, "_re_execute", accusing)


def test_scenario_accusing_an_honest_replica_is_not_ok(monkeypatch):
    honest = run_scenario({"protocol": "bft", "rounds": 2})
    assert honest.ok
    _flag_honest_peer(monkeypatch, accuser=3, accused=2)
    result = run_scenario({"protocol": "bft", "rounds": 2})
    last = json.loads(result.dumps().splitlines()[-1])
    assert last["agreement"] and {fl["accused"] for fl in last["flags"]} == {2}
    assert not result.ok and not last["ok"]


def test_scenario_byzantine_leader_plus_an_honest_accusation_is_not_ok(monkeypatch):
    spec = {"protocol": "bft", "rounds": 3,
            "attack": {"kind": "wrong_value", "round": 2}}
    assert run_scenario(spec).ok
    _flag_honest_peer(monkeypatch, accuser=3, accused=2)
    assert not run_scenario(spec).ok


def test_scenario_leader_without_followers_replies_itself():
    result = run_scenario({"protocol": "bft", "n": 1, "f": 0, "rounds": 2})
    *rounds, last = [json.loads(line) for line in result.dumps().splitlines()]
    assert [r["accepted"]["100"] for r in rounds] == [
        struct.pack(">Q", 1).hex(), struct.pack(">Q", 2).hex()]
    assert result.ok and last["values"] == {"1": 2}


@pytest.mark.parametrize("kind", ["equivocate", "wrong_value"])
@pytest.mark.parametrize("topology", [{"rounds": 2, "attack_round": 5},
                                      {"n": 1, "f": 0, "rounds": 2, "attack_round": 1}],
                         ids=["round-never-reached", "no-follower"])
def test_scenario_attack_that_never_deviated_is_judged_honest(kind, topology):
    spec = {"protocol": "bft", **topology}
    spec["attack"] = {"kind": kind, "round": spec.pop("attack_round")}
    result = run_scenario(spec)
    *rounds, last = [json.loads(line) for line in result.dumps().splitlines()]
    assert last["flags"] == [] and last["agreement"]
    assert [r["accepted"]["100"] for r in rounds] == [
        struct.pack(">Q", 1).hex(), struct.pack(">Q", 2).hex()]
    assert result.ok and last["ok"]


@pytest.mark.parametrize("kind", ["equivocate", "wrong_value"])
def test_scenario_deviation_nobody_flags_is_not_ok(kind, monkeypatch):
    spec = {"protocol": "bft", "rounds": 2, "attack": {"kind": kind, "round": 1}}
    assert run_scenario(spec).ok
    # followers that accept whatever the leader attests flag nothing
    monkeypatch.setattr(BftReplica, "_checked_inner",
                        lambda self, sender, frame: decode_inner(
                            decode_frame(frame).payload))
    result = run_scenario(spec)
    assert json.loads(result.dumps().splitlines()[-1])["flags"] == []
    assert not result.ok


def test_leader_records_only_the_deviations_it_sent():
    honest = BftCluster.build(n=3, f=1, seed=2)
    honest.run_request(0, 1)
    assert not honest.replicas[1].deviated
    liar = BftCluster.build(n=3, f=1, seed=2, leader_cls=WrongValueLeader,
                            leader_kwargs={"lie_round": 2})
    liar.run_request(0, 1)
    assert not liar.replicas[1].deviated
    liar.run_request(0, 2)
    assert liar.replicas[1].deviated
    alone = BftCluster.build(n=1, f=0, seed=2, leader_cls=WrongValueLeader,
                             leader_kwargs={"lie_round": 1})
    alone.run_request(0, 1)
    assert not alone.replicas[1].deviated


@pytest.mark.parametrize("n, f", [(1, 0), (3, 1), (5, 2)])
def test_leader_frees_each_request_once_it_replies(n, f):
    cluster = BftCluster.build(n=n, f=f, seed=3, clients=2)
    for round_id in range(1, 6):
        client = round_id % 2
        req = cluster.run_request(client, round_id)
        assert cluster.clients[client].accepted_value(req) == struct.pack(">Q", round_id)
    assert cluster.replicas[cluster.leader_id].pending_req == {}


@pytest.mark.parametrize("acks, replied", [
    ([(2, "other"), (3, "own")], True),
    ([(3, "own"), (2, "other")], False),
], ids=["completed-by-own", "completed-by-other"])
def test_ack_that_completes_the_count_must_name_the_leaders_request(acks, replied):
    # Acks count once per follower id against the output, whatever request
    # they name; the one that completes the f acks must name the leader's.
    cluster = BftCluster.build(n=5, f=2, seed=4)
    leader = cluster.replicas[cluster.leader_id]
    own, other = cluster.clients[0].issue(1), cluster.clients[0].issue(2)
    leader.leader_handle(own)
    for follower, named in acks:
        endpoint = cluster.replicas[follower].endpoint
        ack = endpoint.local_send(log_session(follower),
                                  encode_inner(own if named == "own" else other, 1))
        leader._leader_on_ack(follower, encode_frame(ack))
    assert [reply.req for reply in leader.outbox_replies] == ([own] if replied else [])
    assert (1 in leader.pending_req) is not replied
    assert leader.flags == []


def test_scenario_client_accepting_another_rounds_value_is_not_ok(monkeypatch):
    # Every replica replies with the next round's value: the clients agree
    # with each other, but not with the round they asked about.
    reply = BftReplica._reply_client
    monkeypatch.setattr(BftReplica, "_reply_client",
                        lambda self, req, output: reply(self, req, output + 1))
    result = run_scenario({"protocol": "bft", "rounds": 2})
    *rounds, last = [json.loads(line) for line in result.dumps().splitlines()]
    assert rounds[0]["accepted"]["100"] == struct.pack(">Q", 2).hex()
    assert not last["agreement"] and not last["ok"] and not result.ok
