"""Reply checking: replicas sign the 97-byte reply statement, and each
distinct signed reply is verified once per keyring."""

import dataclasses
import struct

import pytest
from hypothesis import given, seed, settings, strategies as st

from attestnet.protocols import common
from attestnet.protocols.bft import BftCluster
from attestnet.protocols.chain import OP_PUT, ChainCluster, encode_op
from attestnet.protocols.common import (
    QuorumClient,
    SignedReply,
    digest,
    reply_statement,
)

STATEMENT_LEN = 97


class CountingKey:
    """Wraps a parsed key; counts real Ed25519 verifications and records the
    length of every message it signs or verifies."""

    def __init__(self, key):
        self.key = key
        self.verifies = 0
        self.lengths: list[int] = []

    def sign(self, data):
        self.lengths.append(len(data))
        return self.key.sign(data)

    def verify(self, signature, data):
        self.verifies += 1
        self.lengths.append(len(data))
        self.key.verify(signature, data)


def counting(keyring):
    keys = {device: CountingKey(key) for device, key in keyring.pubs.items()}
    keyring.pubs.update(keys)
    return lambda: sum(k.verifies for k in keys.values())


def message_lengths(keyring) -> list[int]:
    """Wrap every private and public key; the returned list fills with the
    length of each message signed or verified from then on."""
    lengths: list[int] = []
    for keys in (keyring._priv, keyring.pubs):
        for device, key in keys.items():
            keys[device] = CountingKey(key)
            keys[device].lengths = lengths
    return lengths


def signed(keyring, device, req, value) -> SignedReply:
    """The reply an honest replica sends for (req, value)."""
    return keyring.sign(device, req, value, reply_statement(digest(req), digest(value)))


def test_four_clients_check_twelve_replies_and_verify_three():
    cluster = BftCluster.build(n=3, f=1, seed=4, clients=4)
    keyring = cluster.cluster.keyring
    verifies = counting(keyring)
    checks = []
    check = keyring.check
    keyring.check = lambda reply: checks.append(reply) or check(reply)

    req = cluster.run_request(0, 1)

    assert len(checks) == 12
    assert verifies() == 3
    assert cluster.clients[0].accepted_value(req) == struct.pack(">Q", 1)
    for client in cluster.clients:
        assert len(client.replies[req]) == 3
        assert client.observed[req] == struct.pack(">Q", 1)
        # witnessing another client's request ignores nothing
        assert client.ignored == 0


def test_every_signed_and_verified_message_is_the_97_byte_statement():
    bft = BftCluster.build(n=3, f=1, seed=4, clients=2)
    bft_lengths = message_lengths(bft.cluster.keyring)
    req = bft.run_request(0, 1)
    assert bft.clients[0].accepted_value(req) == struct.pack(">Q", 1)

    cr = ChainCluster.build(n=5, f=2, seed=4)
    cr_lengths = message_lengths(cr.cluster.keyring)
    body = bytes(range(256)) * 32                  # an 8 KiB value
    req = cr.run_put(0, 1, b"k", body)
    assert cr.clients[0].accepted_value(req) == struct.pack(">Q", 1) + body

    # BFT: 3 signs and 3 real verifies; CR n=5: 5 and 5
    assert bft_lengths == [STATEMENT_LEN] * 6
    assert cr_lengths == [STATEMENT_LEN] * 10


def _corrupt_signature(reply):
    sig = bytes([reply.signature[0] ^ 1]) + reply.signature[1:]
    return dataclasses.replace(reply, signature=sig)


def _other_device(reply):
    return dataclasses.replace(reply, device=3)


def _flip_payload_byte(reply):
    value = reply.value[:-1] + bytes([reply.value[-1] ^ 1])
    return dataclasses.replace(reply, value=value)


def _flip_request_byte(reply):
    req = bytes([reply.req[0] ^ 1]) + reply.req[1:]
    return dataclasses.replace(reply, req=req)


def _splice_onto_other_request(reply):
    return dataclasses.replace(reply, req=common.encode_request(100, 2))


@pytest.mark.parametrize("forge", [_corrupt_signature, _other_device,
                                   _flip_payload_byte, _flip_request_byte,
                                   _splice_onto_other_request])
def test_forgery_of_remembered_reply_still_rejected(forge):
    cluster = BftCluster.build(n=3, f=1, seed=9)
    client = cluster.clients[0]
    keyring = cluster.cluster.keyring
    verifies = counting(keyring)
    req = client.issue(1)
    good = signed(keyring, 2, req, struct.pack(">Q", 1))
    client.deliver(good)
    assert verifies() == 1 and client.ignored == 0

    bad = forge(good)
    assert bad != good
    client.deliver(bad)
    client.deliver(bad)                     # a failure is never remembered
    assert client.ignored == 2
    assert verifies() == 3
    assert client.replies == {req: {2: struct.pack(">Q", 1)}}
    assert client.accepted_value(req) is None

    assert keyring.check(good)              # the valid reply stays remembered
    assert verifies() == 3


def test_signature_over_the_raw_payload_is_rejected():
    """A signature over the request and value bytes, not their statement."""
    cluster = BftCluster.build(n=3, f=1, seed=9)
    client = cluster.clients[0]
    keyring = cluster.cluster.keyring
    req, value = client.issue(1), struct.pack(">Q", 1)
    for device in (2, 3):
        signature = keyring._priv[device].sign(req + value)
        client.deliver(SignedReply(device, req, value, signature))
    assert client.ignored == 2
    assert client.replies == {} and client.accepted_value(req) is None


class ClosedLoopClient(QuorumClient):
    """Puts its next batch the moment the current put is accepted."""

    def __init__(self, cluster, puts):
        super().__init__(200, cluster.cluster.keyring, cluster.config.quorum)
        self.head = cluster.nodes[cluster.order[0]]
        self.puts = puts
        self.sent: list[bytes] = []

    def send_next(self) -> None:
        body = encode_op(OP_PUT, b"k%d" % len(self.sent), b"%04d" % len(self.sent) * 1024)
        self.sent.append(self.issue(len(self.sent), body))
        self.head.head_handle(self.sent[-1])

    def deliver(self, reply) -> None:
        super().deliver(reply)
        if len(self.sent) < self.puts and self.sent[-1] in self.accepted:
            self.send_next()


def test_each_distinct_reply_payload_is_hashed_once(monkeypatch):
    """A closed-loop client sees the first replies to put k+1 before the last
    ones to put k; the keyring still hashes each put's request and value once."""
    puts = 16
    cluster = ChainCluster.build(n=5, f=2, seed=3, clients=0)
    client = ClosedLoopClient(cluster, puts)
    cluster.clients = [client]
    hashed: list[int] = []
    real_digest = common.digest
    monkeypatch.setattr(common, "digest",
                        lambda data: hashed.append(len(data)) or real_digest(data))

    client.send_next()
    cluster.drain()

    assert len(client.sent) == puts and len(client.accepted) == puts
    assert len(hashed) <= 2 * puts


def _run(protocol: str, clients: int, bodies: list[bytes]):
    """Run one request per body, issued round-robin by the clients; returns
    the cluster, the honest replies in signing order, and every accepted value."""
    if protocol == "bft":
        cluster = BftCluster.build(n=3, f=1, seed=len(bodies), clients=clients)
        devices = sorted(cluster.replicas)
    else:
        cluster = ChainCluster.build(n=3, f=1, seed=len(bodies), clients=clients)
        devices = cluster.order
    keyring = cluster.cluster.keyring
    replies: list[SignedReply] = []
    sign = keyring.sign
    keyring.sign = lambda *args: replies.append(sign(*args)) or replies[-1]
    for i, body in enumerate(bodies):
        client = cluster.clients[i % clients]
        req = client.issue(i, encode_op(OP_PUT, b"k", body) if protocol == "cr" else body)
        if protocol == "bft":
            cluster.replicas[cluster.leader_id].leader_handle(req)
        else:
            cluster.nodes[cluster.order[0]].head_handle(req)
        cluster.drain()
    accepted = {}
    for client in cluster.clients:
        accepted.update(client.accepted)
    return cluster, devices, replies, accepted


def _mutants(reply: SignedReply, position: int, mask: int, devices: list[int]):
    req, value = bytearray(reply.req), bytearray(reply.value)
    sig = bytearray(reply.signature)
    req[position % len(req)] ^= mask
    value[position % len(value)] ^= mask
    sig[position % len(sig)] ^= mask
    yield dataclasses.replace(reply, req=bytes(req))
    yield dataclasses.replace(reply, value=bytes(value))
    yield dataclasses.replace(reply, signature=bytes(sig))
    for device in [*devices, 99]:
        if device != reply.device:
            yield dataclasses.replace(reply, device=device)


@seed(2502)
@settings(max_examples=30, deadline=None, database=None)   # the same 30 runs every time
@given(protocol=st.sampled_from(["bft", "cr"]), clients=st.integers(1, 3),
       bodies=st.lists(st.binary(max_size=40), min_size=1, max_size=3),
       position=st.integers(0, 1 << 16), mask=st.integers(1, 255))
def test_reply_path_rejects_every_single_byte_mutation(protocol, clients, bodies,
                                                        position, mask):
    cluster, devices, replies, accepted = _run(protocol, clients, bodies)
    keyring = cluster.cluster.keyring
    assert len(accepted) == len(bodies)
    assert replies and all(keyring.check(reply) for reply in replies)

    # A client that issued every request sees each mutant before the honest replies.
    client = QuorumClient(999, keyring, cluster.config.quorum)
    client.issued = set(accepted)
    mutants = [m for reply in replies for m in _mutants(reply, position, mask, devices)]
    for mutant in mutants:
        client.deliver(mutant)
    assert client.ignored == len(mutants)
    assert client.replies == {} and client.accepted == {}
    for reply in replies:
        client.deliver(reply)
    assert client.ignored == len(mutants)
    assert client.accepted == accepted
