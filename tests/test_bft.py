"""BFT counter: honest runs, equivocation detection, crash forwarding, quorums."""

import json
import struct

import pytest

from attestnet.checker import check_leader_strategies
from attestnet.device import pack_pair, unpack_pair
from attestnet.protocols.bft import (
    KIND_ACK,
    KIND_FORWARD,
    KIND_PROOF,
    BftCluster,
    BftReplica,
    EquivocatingLeader,
    WrongValueLeader,
    counter_state,
)
from attestnet.protocols.common import (
    digest,
    encode_request,
    log_session,
    reply_statement,
    transport_session,
)
from attestnet.simnet import FaultAction, FaultSchedule
from attestnet.transform import Wrapper
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
    def trusting(self, sender, frame):
        return self._re_execute(sender, *unpack_pair(decode_frame(frame).payload))

    monkeypatch.setattr(Wrapper, "receive", trusting)
    report = check_leader_strategies()
    assert report.verdict == "Counterexample"
    assert report.counterexample.detail == (
        "conflicting round contents, emitted=[(1, b'a'), (1, b'b')],"
        " delivery [0]/[1], no flags")


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
    """Byzantine leader: sends each follower a transport payload built by
    `malform` from the correct inner payload (request ‖ state of its next
    output), which a correct proof is not."""

    def __init__(self, *args, malform, **kwargs):
        super().__init__(*args, **kwargs)
        self.malform = malform

    def leader_handle(self, req: bytes) -> None:
        inner = pack_pair(req, counter_state(self.value + 1))
        payload = self.malform(self.endpoint, log_session(self.node_id), inner)
        for session in self.sessions.values():
            self.endpoint.auth_send(session, payload)


def _attested(endpoint, log, inner: bytes) -> bytes:
    return encode_frame(endpoint.local_send(log, inner))


# Each malformed proof, and the reason both followers flag the leader for.
MALFORMED_PROOFS = {
    "empty-payload": (lambda ep, log, inner: b"", "malformed-proof"),
    "inner-of-2-bytes": (lambda ep, log, inner: (
        bytes([KIND_PROOF]) + _attested(ep, log, b"\x00\x01")), "malformed-proof"),
    "inner-request-overruns": (lambda ep, log, inner: (
        bytes([KIND_PROOF]) + _attested(ep, log, b"\xff" + inner[1:])), "malformed-proof"),
    # The state is compared as the counter's 8 serialized bytes.
    "state-of-7-bytes": (lambda ep, log, inner: (
        bytes([KIND_PROOF]) + _attested(ep, log, inner[:-1])), "state-mismatch"),
    "state-of-9-bytes": (lambda ep, log, inner: (
        bytes([KIND_PROOF]) + _attested(ep, log, inner + b"\x00")), "state-mismatch"),
}


@pytest.mark.parametrize("malform, reason", MALFORMED_PROOFS.values(), ids=MALFORMED_PROOFS)
def test_malformed_proof_from_the_leader_is_flagged(malform, reason):
    cluster = BftCluster.build(n=3, f=1, seed=5, leader_cls=MalformedProofLeader,
                               leader_kwargs={"malform": malform})
    req = cluster.run_request(0, 1)
    assert [(fl.accuser, fl.accused, fl.reason) for fl in cluster.all_flags()] == [
        (2, 1, reason), (3, 1, reason)]
    assert cluster.clients[0].accepted_value(req) is None
    assert cluster.correct_values() == {1: 0, 2: 0, 3: 0}


def test_proof_with_a_forged_inner_tag_is_flagged_and_never_applied():
    def forge(ep, log, inner):
        frame = _attested(ep, log, inner)
        return bytes([KIND_PROOF]) + frame[:-1] + bytes([frame[-1] ^ 1])
    cluster = BftCluster.build(n=3, f=1, seed=5, leader_cls=MalformedProofLeader,
                               leader_kwargs={"malform": forge})
    req = cluster.run_request(0, 1)
    assert [(fl.accuser, fl.accused, fl.reason) for fl in cluster.all_flags()] == [
        (2, 1, "forged-attestation"), (3, 1, "forged-attestation")]
    assert cluster.clients[0].accepted_value(req) is None
    assert cluster.correct_values() == {1: 0, 2: 0, 3: 0}


def test_proof_whose_inner_header_names_another_session_is_flagged():
    # The inner header's session is outside the MAC; relabelled as follower
    # 3's log, the proof still carries a valid tag for the leader's log.
    def relabel(ep, log, inner):
        frame = _attested(ep, log, inner)
        return bytes([KIND_PROOF]) + struct.pack(">I", log_session(3)) + frame[4:]
    cluster = BftCluster.build(n=3, f=1, seed=5, leader_cls=MalformedProofLeader,
                               leader_kwargs={"malform": relabel})
    req = cluster.run_request(0, 1)
    assert [(fl.accuser, fl.accused, fl.reason) for fl in cluster.all_flags()] == [
        (2, 1, "WrongSessionRole"), (3, 1, "WrongSessionRole")]
    assert cluster.correct_values() == {1: 0, 2: 0, 3: 0}
    assert cluster.cluster.endpoints[2].rejection_events == [
        (log_session(1), "WrongSessionRole")]
    assert cluster.clients[0].accepted_value(req) is None


class CrashAfterFirstSendLeader(BftReplica):
    """Leader that reaches only one follower before failing."""

    def leader_handle(self, req: bytes) -> None:
        output = self.value + 1
        self.value = output
        first_follower = self.peers[0]
        self.endpoint.auth_send(transport_session(self.node_id, first_follower),
                                bytes([KIND_PROOF]) + self.wrapper.attest(req, output))
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


@pytest.mark.parametrize("n, f", [(3, 1), (5, 2)])
def test_a_retried_request_is_executed_again_at_every_replica(n, f):
    """The client sends request 1 twice, as a retrying client does. Every
    replica executes it again, as the leader does, and keeps no set of
    applied requests that would drop the copy and stall the cluster."""
    cluster = BftCluster.build(n=n, f=f, seed=1)
    client, leader = cluster.clients[0], cluster.replicas[cluster.leader_id]
    first = cluster.run_request(0, 1)
    assert cluster.run_request(0, 1) == first
    assert cluster.correct_values() == dict.fromkeys(cluster.replicas, 2)
    assert client.accepted_value(first) == struct.pack(">Q", 1)
    assert leader.pending_req == {}
    for k in range(2, 8):
        req = cluster.run_request(0, k)
        assert client.accepted_value(req) == struct.pack(">Q", k + 1)
        assert cluster.correct_values() == dict.fromkeys(cluster.replicas, k + 1)
        assert leader.pending_req == {}
    assert cluster.all_flags() == []
    assert not any(hasattr(replica, "applied") for replica in cluster.replicas.values())


@pytest.mark.parametrize("kind", [KIND_PROOF, KIND_FORWARD])
@pytest.mark.parametrize("output", [1, 2])
def test_a_proof_a_follower_sends_the_leader_is_never_applied(kind, output):
    """A Byzantine follower attests an applied request again, at the output
    it reached or at the next one, and sends it to the leader."""
    cluster = BftCluster.build(n=3, f=1, seed=4)
    req = cluster.run_request(0, 1)
    follower = cluster.replicas[2]
    follower.endpoint.auth_send(transport_session(2, 1),
                                bytes([kind]) + follower.wrapper.attest(req, output))
    cluster.drain()
    assert cluster.correct_values() == {1: 1, 2: 1, 3: 1}
    assert [(fl.accuser, fl.accused, fl.reason) for fl in cluster.all_flags()] == [
        (1, 2, "proof-to-leader")]
    assert cluster.clients[0].replies[req] == dict.fromkeys((1, 2, 3), struct.pack(">Q", 1))


@pytest.mark.parametrize("output", [1, 2])
def test_an_ack_a_follower_sends_a_follower_is_flagged(output):
    """A Byzantine follower attests an applied request again, at the output
    it reached or at the next one, and acks it to another follower."""
    cluster = BftCluster.build(n=3, f=1, seed=4)
    req = cluster.run_request(0, 1)
    follower = cluster.replicas[2]
    follower.endpoint.auth_send(transport_session(2, 3),
                                bytes([KIND_ACK]) + follower.wrapper.attest(req, output))
    cluster.drain()
    assert cluster.correct_values() == {1: 1, 2: 1, 3: 1}
    assert [(fl.accuser, fl.accused, fl.reason) for fl in cluster.all_flags()] == [
        (3, 2, "ack-to-follower")]
    assert cluster.clients[0].replies[req] == dict.fromkeys((1, 2, 3), struct.pack(">Q", 1))


@pytest.mark.parametrize("n, f", [(3, 1), (5, 2)])
def test_after_a_forged_forward_the_next_requests_commit_everywhere(n, f):
    """Follower 2 attests a request the leader never ordered and forwards it
    to follower 3, which applies it: a forward carries no attestation of the
    leader. The client's next request is lost, the requests after it commit
    at every replica, and only the forger is flagged, once by each accuser."""
    cluster = BftCluster.build(n=n, f=f, seed=1)
    cluster.run_request(0, 1)
    forger = cluster.replicas[2]
    forger.endpoint.auth_send(transport_session(2, 3), bytes([KIND_FORWARD])
                              + forger.wrapper.attest(encode_request(555, 1), 2))
    cluster.drain()
    client = cluster.clients[0]
    assert client.accepted_value(cluster.run_request(0, 2)) is None
    for k in range(3, 6):
        req = cluster.run_request(0, k)
        assert client.accepted_value(req) == struct.pack(">Q", k)
        assert cluster.correct_values() == dict.fromkeys(cluster.replicas, k)
    pairs = [(flag.accuser, flag.accused) for flag in cluster.all_flags()]
    assert {accused for _, accused in pairs} == {2}
    assert len(pairs) == len(set(pairs))


def _reply(cluster, device, req, value):
    """The reply replica `device` sends for (req, value)."""
    return cluster.cluster.keyring.sign(device, req, value,
                                        reply_statement(digest(req), digest(value)))


def test_client_quorum_two_identical_beat_one_conflicting():
    cluster = BftCluster.build(n=3, f=1, seed=5)
    client = cluster.clients[0]
    req = client.issue(1)
    good, bad = struct.pack(">Q", 1), struct.pack(">Q", 99)
    client.deliver(_reply(cluster, 1, req, bad))
    assert client.accepted_value(req) is None     # one conflicting reply
    client.deliver(_reply(cluster, 2, req, good))
    assert client.accepted_value(req) is None     # still only one good vote
    client.deliver(_reply(cluster, 3, req, good))
    assert client.accepted_value(req) == struct.pack(">Q", 1)


def test_replies_for_foreign_requests_not_counted():
    cluster = BftCluster.build(n=3, f=1, seed=6, clients=2)
    mine, theirs = cluster.clients
    req_theirs = theirs.issue(1)
    for device in (1, 2):
        mine.deliver(_reply(cluster, device, req_theirs, struct.pack(">Q", 1)))
    assert mine.accepted == {}             # never issued by this client
    assert mine.observed.get(req_theirs) == struct.pack(">Q", 1)


def test_single_reply_never_accepted():
    cluster = BftCluster.build(n=3, f=1, seed=7)
    client = cluster.clients[0]
    req = client.issue(1)
    client.deliver(_reply(cluster, 2, req, struct.pack(">Q", 1)))
    assert client.accepted_value(req) is None


def test_unsigned_reply_ignored():
    from attestnet.protocols.common import Reply

    cluster = BftCluster.build(n=3, f=1, seed=8)
    client = cluster.clients[0]
    req = client.issue(1)
    value = struct.pack(">Q", 1)
    forged = {client.client_id: b"\x00" * 48}
    client.deliver(Reply(device=2, req=req, value=value, macs=forged))
    client.deliver(Reply(device=3, req=req, value=value, macs=forged))
    assert client.accepted_value(req) is None
    assert client.ignored == 2


def _flag_honest_peer(monkeypatch, accuser: int, accused: int):
    """Make one follower accuse an honest peer on every validation."""
    re_execute = Wrapper._re_execute

    def accusing(self, sender, app_msg, state):
        if self.endpoint.device == accuser and sender == accused:
            self.accuse(sender, "state-mismatch")
        return re_execute(self, sender, app_msg, state)

    monkeypatch.setattr(Wrapper, "_re_execute", accusing)


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


def test_scenario_crashed_leader_is_ok_but_its_rounds_stall():
    # A crash deviates from nothing, so the run is ok; the rounds after it
    # commit nowhere, and the result records them apart from its lines.
    result = run_scenario({"protocol": "bft", "rounds": 3,
                           "attack": {"kind": "crash", "node": 1, "after_round": 1}})
    assert result.ok and result.stalled == [2, 3]
    assert len(result.latencies_ns) == 3 and result.elapsed_ns == sum(result.latencies_ns)
    assert "stalled" not in result.dumps()


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
    def accepting(self, sender, frame):
        req, state = unpack_pair(decode_frame(frame).payload)
        return req, int.from_bytes(state, "big")

    monkeypatch.setattr(Wrapper, "receive", accepting)
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
        ack = cluster.replicas[follower].wrapper.attest(own if named == "own" else other, 1)
        leader._leader_on_ack(follower, ack)
    assert [reply.req for reply in leader.outbox_replies] == ([own] if replied else [])
    assert (1 in leader.pending_req) is not replied
    assert leader.wrapper.flags == []


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
