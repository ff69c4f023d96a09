"""Chain replication: commit-index agreement, lie detection position, client quorum."""

import json
import struct
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from attestnet import kernel
from attestnet.protocols import chain
from attestnet.device import pack_batch
from attestnet.errors import WrongSender, WrongSessionRole
from attestnet.protocols.chain import (
    POE_BASE,
    POE_CHAIN,
    ChainCluster,
    ChainNode,
    KvMachine,
    LyingMiddle,
    OP_GET,
    OP_PUT,
    decode_op,
    digest,
    encode_op,
    encode_proof,
    peel_poe,
)
from attestnet.protocols.common import log_session, transport_session
from attestnet.scenario import run_scenario
from attestnet.simnet import FaultAction, FaultSchedule
from attestnet.transform import Flag
from attestnet.wire import decode_frame, encode_frame
from test_device import role_blind

# ChainCluster.build orders devices 1..n: the device at position k is k + 1.
ORDER = [1, 2, 3, 4, 5]


def reexecute_oracle(requests: list[bytes]) -> list[bytes]:
    """Independent replica: run each request body on a fresh machine copy."""
    machine = KvMachine()
    outputs = []
    for body in requests:
        op = decode_op(body)
        outputs.append(machine.output(*op))
        machine.commit(*op)
    return outputs


def test_honest_put_commit_indexes_agree():
    cluster = ChainCluster.build(n=3, f=1, seed=1)
    client = cluster.clients[0]
    req = cluster.run_put(0, 1, b"k", b"v")
    histories = cluster.commit_histories()
    assert histories == {1: [1], 2: [1], 3: [1]}
    # 3 consistent replies: value committed with quorum
    assert len(client.replies[req]) == 3
    assert client.accepted_value(req) == struct.pack(">Q", 1) + b"v"


def test_multiple_rounds_identical_histories_match_oracle():
    cluster = ChainCluster.build(n=3, f=1, seed=2)
    bodies = []
    for i in range(1, 6):
        key, value = b"k%d" % i, b"v%d" % i
        cluster.run_put(0, i, key, value)
        bodies.append(encode_op(OP_PUT, key, value))
    histories = cluster.commit_histories()
    assert len({tuple(h) for h in histories.values()}) == 1
    expected_outputs = reexecute_oracle(bodies)
    assert [struct.unpack(">Q", o[:8])[0] for o in expected_outputs] == histories[1]


def test_get_traverses_whole_chain():
    cluster = ChainCluster.build(n=3, f=1, seed=3)
    client = cluster.clients[0]
    cluster.run_put(0, 1, b"color", b"teal")
    req = cluster.run_request(0, 2, encode_op(OP_GET, b"color"))
    # every node executed the read: commit indexes advanced everywhere
    assert cluster.commit_histories() == {1: [1, 2], 2: [1, 2], 3: [1, 2]}
    assert client.accepted_value(req) == struct.pack(">Q", 2) + b"teal"


def test_middle_lie_caught_by_first_downstream_node():
    cluster = ChainCluster.build(
        n=3, f=1, seed=4,
        node_cls_at={1: LyingMiddle},
        node_kwargs_at={1: {"lie_at_commit": 1}})
    client = cluster.clients[0]
    req = cluster.run_put(0, 1, b"k", b"v")
    tail_flags = cluster.nodes[3].flags
    assert len(tail_flags) == 1
    assert tail_flags[0].accused == cluster.order[1]
    # head reply is correct, middle reply lies, tail refuses: no f+1 quorum
    # for the wrong value, so the client never accepts a lie
    accepted = client.accepted_value(req)
    assert accepted is None or accepted == struct.pack(">Q", 1) + b"v"


def test_lie_detected_via_independent_reexecution():
    # the detection oracle: re-execute the request at the tail's position
    body = encode_op(OP_PUT, b"k", b"v")
    expected = KvMachine().output(*decode_op(body))
    lied = struct.pack(">Q", 42) + b"bogus"
    assert lied != expected


def test_validate_chain_flags_tag_corruption():
    cluster = ChainCluster.build(n=3, f=1, seed=5)
    head = cluster.nodes[1]
    middle = cluster.nodes[2]
    body = encode_op(OP_PUT, b"k", b"v")
    req = b"\x00" * 12 + body
    out = head.machine.output(*decode_op(body))
    level = head.endpoint.local_send(
        log_session(1), bytes([POE_BASE]) + digest(req) + digest(out))
    frame = bytearray(encode_frame(level))
    frame[25] ^= 0x01           # corrupt payload inside the level frame
    middle.middle_tail_handle(encode_proof(req, [bytes(frame)]))
    assert middle.flags == [Flag(2, cluster.order[0], "AuthFailure at node 1")]


@lru_cache(maxsize=None)
def honest_proof(position: int, n: int = 5, seed: int = 5) -> bytes:
    """The transport payload an honest chain hands `position` for one put."""
    cluster = ChainCluster.build(n=n, seed=seed)
    cluster.run_put(0, 1, b"k", b"v")
    (event,) = [ev for ev in cluster.cluster.net.trace
                if ev.dst == cluster.order[position]]
    return decode_frame(event.frame).payload


def fresh_node(position: int, n: int = 5, seed: int = 5):
    """A node at `position` that has validated nothing yet (same keys)."""
    cluster = ChainCluster.build(n=n, seed=seed)
    return cluster.nodes[cluster.order[position]]


def accused(position: int, proof: bytes, n: int = 5) -> Flag:
    """The one flag a fresh node at `position` raises on `proof`."""
    node = fresh_node(position, n)
    node.middle_tail_handle(proof)
    (flag,) = node.flags
    return flag


def test_honest_proof_validates_at_every_position():
    out_digest = digest(struct.pack(">Q", 1) + b"v")
    for position in range(1, 5):
        proof = honest_proof(position)
        req, levels = peel_poe(proof)
        assert fresh_node(position).validate_chain(proof)[:2] == (req, levels)
        # Level 0 links to the request, level k to level k-1's whole frame.
        links = [digest(req)] + [digest(frame) for frame in levels[:-1]]
        kinds = [POE_BASE] + [POE_CHAIN] * (position - 1)
        assert [decode_frame(frame).payload for frame in levels] == [
            bytes([kind]) + link + out_digest for kind, link in zip(kinds, links)]


@pytest.mark.parametrize("n, sent_for, received_at", [
    (3, 1, 2),     # the tail gets a proof holding only level 0
    (5, 1, 3),
    (5, 3, 4),
    (3, 2, 1),     # a proof with one level too many
])
def test_proof_with_wrong_level_count_accuses_upstream_neighbour(
        n, sent_for, received_at):
    flag = accused(received_at, honest_proof(sent_for, n), n)
    assert flag.accused == ORDER[received_at - 1]
    assert flag.reason == f"{sent_for} levels, expected {received_at}"


def test_malformed_proof_accuses_upstream_neighbour():
    proof = honest_proof(2)
    assert accused(2, proof[:-1]).accused == ORDER[1]
    assert accused(2, proof + b"\x00").accused == ORDER[1]


def test_proof_with_no_request_accuses_upstream_neighbour():
    flag = accused(2, pack_batch([]))
    assert flag.accused == ORDER[1] and "without a request" in flag.reason


# Header fields (session, device, counter, length), the kind byte, the link,
# the output digest, a tag byte and a tag pad byte of a level frame.
LEVEL_OFFSETS = [3, 7, 15, 19, 20, 30, 90, 120, -1]


# Every failure accuses the upstream neighbour, which made the fault or
# forwarded it; the detail names the first failing level by its node (the
# device at position k is k + 1).

@pytest.mark.parametrize("position, level", [
    (p, k) for p in range(1, 5) for k in range(p)])
def test_flipped_byte_in_a_level_is_flagged_at_that_level(position, level):
    req, levels = peel_poe(honest_proof(position))
    for offset in LEVEL_OFFSETS:
        frame = bytearray(levels[level])
        frame[offset] ^= 0x01
        tampered = levels[:level] + [bytes(frame)] + levels[level + 1:]
        flag = accused(position, encode_proof(req, tampered))
        assert flag.accused == ORDER[position - 1], offset
        assert flag.reason.endswith(f"at node {level + 1}"), offset
        if offset == 3:     # the header's session id, outside the MAC
            assert flag.reason == f"WrongSessionRole at node {level + 1}"


@st.composite
def flipped_proofs(draw):
    """(n, receiving position, its honest proof with any one bit flipped)."""
    n = draw(st.sampled_from([3, 4, 5]))
    position = draw(st.integers(1, n - 1))
    proof = bytearray(honest_proof(position, n))
    bit = draw(st.integers(0, len(proof) * 8 - 1))
    proof[bit // 8] ^= 1 << bit % 8
    return n, position, bytes(proof)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=flipped_proofs())
def test_any_flipped_proof_bit_accuses_the_upstream_neighbour_once(case):
    # The bit may sit in the batch framing, the request or any level.
    n, position, proof = case
    node = fresh_node(position, n)
    node.middle_tail_handle(proof)
    assert [flag.accused for flag in node.flags] == [ORDER[position - 1]]
    assert node.machine.commit_index == 0 and node.outbox_replies == []
    assert not node.cluster.net.has_pending()


@pytest.mark.parametrize("position", range(1, 5))
@pytest.mark.parametrize("offset", [0, 12, -1])
def test_changed_request_byte_is_a_link_mismatch_at_the_head(position, offset):
    req, levels = peel_poe(honest_proof(position))
    changed = bytearray(req)
    changed[offset] ^= 0x01
    flag = accused(position, encode_proof(bytes(changed), levels))
    assert flag.accused == ORDER[position - 1]
    assert flag.reason == "link mismatch at node 1"


@pytest.mark.parametrize("first, second", [
    (i, j) for i in range(4) for j in range(i + 1, 4)])
def test_swapped_levels_flagged_at_first_swapped_position(first, second):
    req, levels = peel_poe(honest_proof(4))
    levels[first], levels[second] = levels[second], levels[first]
    flag = accused(4, encode_proof(req, levels))
    assert flag.accused == ORDER[3]
    assert flag.reason.endswith(f"at node {first + 1}")


class FlipsLevelZero(ChainNode):
    """Byzantine forwarder: flips one payload byte of the head's level."""

    def validate_chain(self, proof):
        req, levels, *rest = super().validate_chain(proof)
        frame = bytearray(levels[0])
        frame[25] ^= 0x01
        return (req, [bytes(frame), *levels[1:]], *rest)


class ForgesLevelOne(ChainNode):
    """Byzantine forwarder: replaces position 1's level with one it attests
    itself on position 1's log session, claiming a different output. Only a
    role-blind kernel lets it attest there."""

    def validate_chain(self, proof):
        req, levels, *rest = super().validate_chain(proof)
        fake = self.endpoint.local_send(
            log_session(self.order[1]),
            bytes([POE_CHAIN]) + digest(levels[0]) + digest(b"other output"))
        return (req, [levels[0], encode_frame(fake)], *rest)


@pytest.mark.parametrize("forwarder, reason", [
    (FlipsLevelZero, "AuthFailure at node 1"),
    (ForgesLevelOne, "WrongSender at node 2"),
])
def test_byzantine_forwarder_cannot_frame_an_honest_upstream_node(forwarder, reason):
    cluster = ChainCluster.build(n=4, seed=7, node_cls_at={2: forwarder})
    role_blind(cluster.nodes[cluster.order[2]].endpoint)
    for req_id in (1, 2):
        cluster.run_put(0, req_id, b"k", b"v%d" % req_id)
    assert [(flag.accuser, flag.accused, flag.reason)
            for flag in cluster.all_flags()] == [(4, cluster.order[2], reason)]


def test_level_attested_by_another_device_is_rejected():
    # Every device holds every log session's key, so on a role-blind kernel
    # position 2 can attest on position 1's log session; the level still
    # names device 3.
    cluster = ChainCluster.build(n=4, seed=7)
    impostor, tail = cluster.nodes[3], cluster.nodes[4]
    with pytest.raises(WrongSessionRole):       # the production kernel's refusal
        impostor.endpoint.local_send(log_session(2), b"level")
    fake = role_blind(impostor.endpoint).local_send(log_session(2), b"level")
    with pytest.raises(WrongSender):
        tail.endpoint.local_verify(log_session(2), fake)
    assert tail.endpoint.rejection_events == [(log_session(2), "WrongSender")]
    genuine = cluster.nodes[2].endpoint.local_send(log_session(2), b"level")
    assert tail.endpoint.local_verify(log_session(2), genuine) == genuine


def test_forged_copy_of_the_heads_level_accuses_nobody():
    # The head's level travels in plaintext inside its proof; a copy injected
    # on the wire must not move the counter position 1 validates it against.
    reference = ChainCluster.build(n=4, seed=7)
    reference.run_put(0, 1, b"k", b"v1")
    proof = next(event.frame for event in reference.cluster.net.trace
                 if (event.src, event.dst) == (1, 2))
    _, levels = peel_poe(decode_frame(proof).payload)

    cluster = ChainCluster.build(n=4, seed=7)
    cluster.cluster.net.install_schedule(FaultSchedule(actions=[FaultAction(
        kind="forge", session=transport_session(1, 2), sender=1, index=0,
        frame=levels[0])]))
    for req_id in (1, 2):
        cluster.run_put(0, req_id, b"k", b"v%d" % req_id)
    forged = [event for event in cluster.cluster.net.trace
              if event.disposition == "forged"]
    assert [(event.dst, event.accepted) for event in forged] == [(2, False)]
    assert cluster.cluster.endpoints[2].rejection_events == [
        (log_session(1), "WrongSessionRole")]
    assert all(ep.poll(session) == [] for ep in cluster.cluster.endpoints.values()
               for session in ep.sessions())
    assert cluster.all_flags() == []
    assert cluster.commit_histories() == {d: [1, 2] for d in (1, 2, 3, 4)}


class ShortRequestHead(ChainNode):
    """Byzantine head: attests and forwards a proof over a request whose
    body is not an op, built from the client's request by `shorten`."""

    def __init__(self, *args, shorten, **kwargs):
        super().__init__(*args, **kwargs)
        self.shorten = shorten

    def head_handle(self, req: bytes) -> None:
        req = self.shorten(req)
        level = self.endpoint.local_send(
            log_session(self.node_id), bytes([POE_BASE]) + digest(req) + digest(b""))
        self.endpoint.auth_send(self.downstream_session,
                                encode_proof(req, [encode_frame(level)]))


@pytest.mark.parametrize("shorten", [lambda req: req[:5], lambda req: req[:13]],
                         ids=["request-of-5-bytes", "op-byte-only"])
def test_request_that_is_not_an_op_accuses_the_head(shorten):
    cluster = ChainCluster.build(n=3, seed=8, node_cls_at={0: ShortRequestHead},
                                 node_kwargs_at={0: {"shorten": shorten}})
    req = cluster.run_put(0, 1, b"k", b"v")
    assert [(fl.accuser, fl.accused) for fl in cluster.all_flags()] == [
        (2, cluster.order[0])]
    assert cluster.all_flags()[0].reason.startswith("request: ")
    assert cluster.clients[0].accepted_value(req) is None
    assert cluster.commit_histories() == {1: [], 2: [], 3: []}


def put_value(size: int) -> bytes:
    return bytes(i % 251 for i in range(size))


def test_large_puts_commit_on_five_nodes():
    # Every transport frame carries the request once, so a put fits the
    # kernel's 64 KiB payload limit on any chain length.
    cluster = ChainCluster.build(n=5, f=2, seed=6)
    client = cluster.clients[0]
    for req_id, size in enumerate([12 * 1024, 40 * 1024], start=1):
        value = put_value(size)
        req = cluster.run_put(0, req_id, b"big", value)
        assert client.accepted_value(req) == struct.pack(">Q", req_id) + value
    assert cluster.commit_histories() == {d: [1, 2] for d in range(1, 6)}
    assert cluster.all_flags() == []


def test_one_put_macs_and_sends_a_bounded_number_of_bytes(monkeypatch):
    # 23 tags: 4 transport frames, each MACed by sender and receiver, carry
    # the request; the other 15 cover 97-byte levels. The bounds hold only if
    # per-hop cost is payload plus small levels, not chain length x payload.
    maced = []
    compute_tag = kernel.compute_tag

    def counting(state, payload, device, counter):
        maced.append(len(payload) + kernel.DEVICE_WIRE_LEN + kernel.COUNTER_WIRE_LEN)
        return compute_tag(state, payload, device, counter)

    cluster = ChainCluster.build(n=5, f=2, seed=6)
    monkeypatch.setattr(kernel, "compute_tag", counting)
    req = cluster.run_put(0, 1, b"k", put_value(4096))
    assert cluster.clients[0].accepted_value(req) is not None
    assert len(maced) == 23
    assert sum(maced) <= 40 * 1024
    assert sum(len(ev.frame) for ev in cluster.cluster.net.trace) <= 25 * 1024


@pytest.mark.parametrize("n, f, position", [(3, 1, 1), (5, 2, 2)])
def test_lying_middle_is_the_only_node_accused(n, f, position):
    # After flagging the liar the next node accepts nothing more from the
    # chain, so later rounds cannot make it accuse the honest head.
    result = run_scenario({"protocol": "cr", "n": n, "f": f, "attack": {
        "kind": "lie", "position": position, "commit": 2}})
    verdict = json.loads(result.dumps().splitlines()[-1])
    assert [flag["position"] for flag in verdict["flags"]] == [position]
    assert verdict["ok"] and result.ok


@pytest.mark.parametrize("position", [1, 2, 3])
def test_only_a_lying_tail_is_masked(position):
    # No node follows the tail, so nothing can detect its lie; the three
    # honest replies outvote it. A lying middle node is caught downstream.
    result = run_scenario({"protocol": "cr", "n": 4, "f": 1, "rounds": 3, "attack": {
        "kind": "lie", "position": position, "commit": 2}})
    verdict = json.loads(result.dumps().splitlines()[-1])
    is_tail = position == 3
    assert verdict["masked"] is is_tail
    assert [flag["position"] for flag in verdict["flags"]] == (
        [] if is_tail else [position])
    assert result.ok and verdict["ok"]


def test_an_unflagged_middle_lie_is_not_ok(monkeypatch):
    # Client 0 still accepts the correct value (head and position 1 agree),
    # but only a lying tail may go unflagged.
    monkeypatch.setattr(ChainCluster, "all_flags", lambda self: [])
    result = run_scenario({"protocol": "cr", "n": 4, "f": 1, "rounds": 3, "attack": {
        "kind": "lie", "position": 2, "commit": 2}})
    lines = [json.loads(line) for line in result.dumps().splitlines()]
    assert all(line["accepted"] is not None for line in lines[:-1])
    assert lines[-1]["masked"] is False and not result.ok


def test_lie_past_the_last_round_is_judged_as_an_honest_run():
    # The liar never reaches commit 2, so nothing deviated and nothing may
    # be accused; the run is held to the honest verdict.
    result = run_scenario({"protocol": "cr", "n": 3, "rounds": 1, "attack": {
        "kind": "lie", "position": 1, "commit": 2}})
    verdict = json.loads(result.dumps().splitlines()[-1])
    assert verdict["flags"] == []
    assert verdict["commit_histories"] == {"1": [1], "2": [1], "3": [1]}
    assert result.ok and verdict["ok"]


def test_lying_head_lies_and_the_next_node_accuses_it():
    # The head attests, forwards and replies with its deviated output, so
    # position 1 sees the output mismatch at node 1 and accuses position 0.
    result = run_scenario({"protocol": "cr", "n": 3, "rounds": 2, "attack": {
        "kind": "lie", "position": 0, "commit": 1}})
    lines = [json.loads(line) for line in result.dumps().splitlines()]
    verdict = lines[-1]
    assert verdict["flags"] == [
        {"accuser": 2, "position": 0, "reason": "output mismatch at node 1"}]
    assert all(line["accepted"] is None for line in lines[:-1])
    assert result.ok and verdict["ok"]


def test_a_node_records_that_it_deviated_only_when_its_output_changed():
    cluster = ChainCluster.build(n=3, f=1, seed=2, node_cls_at={0: LyingMiddle},
                                 node_kwargs_at={0: {"lie_at_commit": 2}})
    head = cluster.nodes[cluster.order[0]]
    cluster.run_put(0, 1, b"k", b"v")
    assert not head.deviated
    cluster.run_put(0, 2, b"k", b"v")
    assert head.deviated
    assert not any(node.deviated for node in cluster.nodes.values() if node is not head)


def test_lie_at_the_last_round_must_still_be_detected():
    result = run_scenario({"protocol": "cr", "n": 3, "rounds": 2, "attack": {
        "kind": "lie", "position": 1, "commit": 2}})
    verdict = json.loads(result.dumps().splitlines()[-1])
    assert [flag["position"] for flag in verdict["flags"]] == [1]
    assert result.ok


def test_one_node_chain_commits_at_its_head():
    # The head is also the tail: it has no one to forward to.
    result = run_scenario({"protocol": "cr", "n": 1, "f": 0, "rounds": 2})
    verdict = json.loads(result.dumps().splitlines()[-1])
    assert verdict["commit_histories"] == {"1": [1, 2]}
    assert [json.loads(line)["accepted"] is not None
            for line in result.dumps().splitlines()[:-1]] == [True, True]
    assert result.ok


@pytest.mark.parametrize("body", [b"\x50", b"", b"\x50\x00\x00\x00\x09key"],
                         ids=["1-byte", "empty", "key-overruns"])
def test_client_request_that_is_not_an_op_is_dropped_at_the_head(body):
    cluster = ChainCluster.build(n=3, f=1, seed=12)
    client = cluster.clients[0]
    cluster.nodes[1].head_handle(client.issue(1, body))
    assert not cluster.cluster.net.has_pending()
    assert all(node.machine.commit_index == 0 and not node.outbox_replies
               for node in cluster.nodes.values())
    req = cluster.run_put(0, 2, b"k", b"v")
    assert client.accepted_value(req) == struct.pack(">Q", 1) + b"v"
    assert cluster.commit_histories() == {1: [1], 2: [1], 3: [1]}
    assert cluster.all_flags() == []


@pytest.mark.parametrize("n", [3, 5])
def test_each_node_decodes_and_executes_a_put_once(monkeypatch, n):
    # One pass down the chain: every node, the head included, decodes the
    # request and its op once, and computes the output once.
    calls = {"decode_request": 0, "decode_op": 0, "output": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    cluster = ChainCluster.build(n=n, f=(n - 1) // 2, seed=9)
    monkeypatch.setattr(chain, "decode_request", counted("decode_request",
                                                         chain.decode_request))
    monkeypatch.setattr(chain, "decode_op", counted("decode_op", chain.decode_op))
    monkeypatch.setattr(KvMachine, "output", counted("output", KvMachine.output))
    req = cluster.run_put(0, 1, b"k", b"v")
    assert cluster.clients[0].accepted_value(req) == struct.pack(">Q", 1) + b"v"
    assert calls == {"decode_request": n, "decode_op": n, "output": n}
