"""Reply authentication: every reply carries one 48-byte keyed BLAKE2b MAC of
the 97-byte reply statement per enrolled client, under the key K(replica,
client), and a client checks only its own entry. The MACs come from each
key's cached keyed state, built on the key's first MAC."""

import hashlib
import hmac
import struct

import pytest
from hypothesis import given, seed, settings, strategies as st

from attestnet import kernel
from attestnet.protocols import common
from attestnet.protocols.bft import BftCluster
from attestnet.protocols.chain import OP_PUT, ChainCluster, encode_op
from attestnet.protocols.common import (
    QuorumClient,
    Reply,
    ReplyKeyring,
    digest,
    reply_key,
    reply_mac,
    reply_statement,
)

STATEMENT_LEN = 97


class CountingMac:
    """Stands in for `common.reply_mac`; records the length of every
    statement MACed there."""

    def __init__(self):
        self.lengths: list[int] = []

    def __call__(self, states, key, statement):
        self.lengths.append(len(statement))
        return reply_mac(states, key, statement)


def keyed_blake2b(key: bytes, statement: bytes) -> bytes:
    """The one-shot MAC every reply entry must equal."""
    return hashlib.blake2b(statement, key=key, digest_size=48).digest()


def honest_reply(keyring, device, req, value) -> Reply:
    """The reply an honest replica sends for (req, value)."""
    return keyring.sign(device, req, value, reply_statement(digest(req), digest(value)))


def flipped(mac: bytes) -> bytes:
    return bytes([mac[0] ^ 1]) + mac[1:]


def test_four_clients_check_twelve_replies_and_verify_three(monkeypatch):
    cluster = BftCluster.build(n=3, f=1, seed=4, clients=4)
    keyring = cluster.cluster.keyring
    macs = CountingMac()
    monkeypatch.setattr(common, "reply_mac", macs)
    replies, checks = [], []
    sign, check = keyring.sign, keyring.check
    keyring.sign = lambda *args: replies.append(sign(*args)) or replies[-1]
    keyring.check = lambda reply, client_id: (
        checks.append((reply.device, client_id)) or check(reply, client_id))

    req = cluster.run_request(0, 1)

    clients = [client.client_id for client in cluster.clients]
    # three replies, each with one entry per client, each checked by every client
    assert [(reply.device, sorted(reply.macs)) for reply in replies] == [
        (device, clients) for device in (2, 3, 1)]
    assert sorted(checks) == [(device, c) for device in (1, 2, 3) for c in clients]
    assert len(macs.lengths) == 3 * 4 + 12
    assert cluster.clients[0].accepted_value(req) == struct.pack(">Q", 1)
    for client in cluster.clients:
        assert len(client.replies[req]) == 3
        assert client.observed[req] == struct.pack(">Q", 1)
        # witnessing another client's request ignores nothing
        assert client.ignored == 0


def test_every_signed_and_verified_message_is_the_97_byte_statement(monkeypatch):
    macs = CountingMac()
    monkeypatch.setattr(common, "reply_mac", macs)
    bft = BftCluster.build(n=3, f=1, seed=4, clients=2)
    req = bft.run_request(0, 1)
    assert bft.clients[0].accepted_value(req) == struct.pack(">Q", 1)
    # BFT: 3 replies x 2 client entries, and 3 x 2 checks
    assert macs.lengths == [STATEMENT_LEN] * 12

    macs.lengths.clear()
    cr = ChainCluster.build(n=5, f=2, seed=4)
    body = bytes(range(256)) * 32                  # an 8 KiB value
    req = cr.run_put(0, 1, b"k", body)
    assert cr.clients[0].accepted_value(req) == struct.pack(">Q", 1) + body
    # CR n=5, one client: 5 entries and 5 checks
    assert macs.lengths == [STATEMENT_LEN] * 10


@seed(2502)
@settings(max_examples=50, deadline=None, database=None)
@given(key=st.binary(min_size=32, max_size=32),
       statements=st.lists(st.binary(max_size=200), min_size=1, max_size=4))
def test_reply_mac_from_cached_state_is_keyed_blake2b(key, statements):
    """The first and every repeated MAC under one keyed state; a MAC that fed
    the cached state instead of a copy would differ from the second on."""
    states: dict = {}
    for statement in [*statements, *statements]:
        assert reply_mac(states, key, statement) == keyed_blake2b(key, statement)
    assert list(states) == [key]


@seed(2502)
@settings(max_examples=20, deadline=None, database=None)
@given(cluster_seed=st.integers(0, 2 ** 32), req=st.binary(max_size=40),
       values=st.lists(st.binary(max_size=40), min_size=2, max_size=3))
def test_every_sign_entry_is_keyed_blake2b_under_its_reply_key(cluster_seed, req, values):
    cluster = BftCluster.build(n=3, f=1, seed=cluster_seed, clients=4)
    keyring = cluster.cluster.keyring
    clients = [client.client_id for client in cluster.clients]
    for value in values:
        statement = reply_statement(digest(req), digest(value))
        for device in sorted(cluster.replicas):
            reply = keyring.sign(device, req, value, statement)
            assert reply.macs == {
                c: keyed_blake2b(reply_key(cluster_seed, device, c), statement)
                for c in clients}
            assert all(keyring.check(reply, c) for c in clients)


def counting_state_builds(monkeypatch) -> list[bytes]:
    """Records the key of every keyed BLAKE2b state built."""
    built: list[bytes] = []
    blake2b = hashlib.blake2b
    monkeypatch.setattr(hashlib, "blake2b",
                        lambda *args, **kwargs: built.append(kwargs.get("key"))
                        or blake2b(*args, **kwargs))
    return built


@pytest.mark.parametrize("requests", [1, 6])
def test_one_keyed_state_per_reply_key_whatever_the_run_length(monkeypatch, requests):
    built = counting_state_builds(monkeypatch)
    cluster = BftCluster.build(n=3, f=1, seed=5, clients=4)
    late = QuorumClient(300, cluster.cluster.keyring, cluster.config.quorum)
    assert built == []                      # enrolling builds no keyed state

    for i in range(requests):
        cluster.run_request(i % 4, i)
    keys = [reply_key(5, d, c.client_id) for d in (1, 2, 3) for c in [*cluster.clients, late]]
    assert sorted(built) == sorted(keys)


def test_only_keys_that_mac_get_pads(monkeypatch):
    """A key's pads are its keyed state: BLAKE2b compresses the key,
    zero-padded to a block, before the statement (RFC 7693)."""
    built = counting_state_builds(monkeypatch)
    keyring = ReplyKeyring([1, 2, 3], seed=5)
    for client in range(4):
        keyring.enroll(client)
    req, value = b"r", b"v"
    reply = keyring.sign(2, req, value, reply_statement(digest(req), digest(value)))
    assert keyring.check(reply, 0)
    assert sorted(built) == sorted(reply_key(5, 2, c) for c in range(4))


def test_kernel_tags_and_reply_macs_use_their_own_keys(monkeypatch):
    """One BFT request with 4 clients computes 21 kernel tags and 24 reply
    MACs, one CR put 23 tags and 10 MACs. Session keys get HMAC pad states,
    reply keys keyed BLAKE2b states, and no key gets both."""
    tag_keys: list[bytes] = []
    compute_tag = kernel.compute_tag
    monkeypatch.setattr(kernel, "compute_tag", lambda state, *rest: (
        tag_keys.append(state.key) or compute_tag(state, *rest)))
    padded: list[bytes] = []
    build_pads = kernel.SessionState._build_pads
    monkeypatch.setattr(kernel.SessionState, "_build_pads",
                        lambda state: padded.append(state.key) or build_pads(state))
    keyed = counting_state_builds(monkeypatch)
    macs = CountingMac()
    monkeypatch.setattr(common, "reply_mac", macs)

    bft = BftCluster.build(n=3, f=1, seed=4, clients=4)
    assert bft.clients[0].accepted_value(bft.run_request(0, 1)) == struct.pack(">Q", 1)
    assert (len(tag_keys), len(macs.lengths)) == (21, 24)
    cr = ChainCluster.build(n=5, f=2, seed=4)
    assert cr.clients[0].accepted_value(cr.run_put(0, 1, b"k", b"v")) is not None
    assert (len(tag_keys), len(macs.lengths)) == (21 + 23, 24 + 10)

    reply_keys = {reply_key(4, d, c.client_id) for d in (1, 2, 3) for c in bft.clients}
    reply_keys |= {reply_key(4, d, c.client_id) for d in cr.order for c in cr.clients}
    assert set(keyed) == reply_keys
    assert set(padded) == set(tag_keys) and set(padded).isdisjoint(reply_keys)


def _corrupt_signature(reply):
    return reply._replace(macs={client: flipped(mac) for client, mac in reply.macs.items()})


def _other_device(reply):
    return reply._replace(device=3)


def _flip_payload_byte(reply):
    value = reply.value[:-1] + bytes([reply.value[-1] ^ 1])
    return reply._replace(value=value)


def _flip_request_byte(reply):
    req = bytes([reply.req[0] ^ 1]) + reply.req[1:]
    return reply._replace(req=req)


def _splice_onto_other_request(reply):
    return reply._replace(req=common.encode_request(100, 2))


@pytest.mark.parametrize("forge", [_corrupt_signature, _other_device,
                                   _flip_payload_byte, _flip_request_byte,
                                   _splice_onto_other_request])
def test_forgery_of_remembered_reply_still_rejected(forge):
    """A forgery of a reply whose statement the keyring remembers."""
    cluster = BftCluster.build(n=3, f=1, seed=9)
    client = cluster.clients[0]
    keyring = cluster.cluster.keyring
    req = client.issue(1)
    good = honest_reply(keyring, 2, req, struct.pack(">Q", 1))
    client.deliver(good)
    assert client.ignored == 0

    bad = forge(good)
    assert bad != good
    client.deliver(bad)
    client.deliver(bad)
    assert client.ignored == 2
    assert client.replies == {req: {2: struct.pack(">Q", 1)}}
    assert client.accepted_value(req) is None
    assert keyring.check(good, client.client_id)


def test_signature_over_the_raw_payload_is_rejected():
    """A MAC over the request and value bytes, not their statement, under
    the right key; the same MAC over the statement is accepted."""
    cluster = BftCluster.build(n=3, f=1, seed=9)
    client = cluster.clients[0]
    req, value = client.issue(1), struct.pack(">Q", 1)
    keys = {device: reply_key(cluster.cluster.seed, device, client.client_id)
            for device in (2, 3)}
    for device, key in keys.items():
        mac = keyed_blake2b(key, req + value)
        client.deliver(Reply(device, req, value, {client.client_id: mac}))
    assert client.ignored == 2
    assert client.replies == {} and client.accepted_value(req) is None
    statement = reply_statement(digest(req), digest(value))
    for device, key in keys.items():
        mac = keyed_blake2b(key, statement)
        client.deliver(Reply(device, req, value, {client.client_id: mac}))
    assert client.ignored == 2 and client.accepted_value(req) == value


def test_an_entry_corrupted_for_one_client_leaves_the_others_valid():
    """Replicas 2 and 3 answer A's request with B's entry corrupted; replica
    1 sends a wrong value with A's entry corrupted. A accepts the right
    value; B, which can check only the wrong one, settles on nothing."""
    cluster = BftCluster.build(n=3, f=1, seed=10, clients=2)
    keyring = cluster.cluster.keyring
    a, b = cluster.clients
    req = a.issue(1)
    right, wrong = struct.pack(">Q", 1), struct.pack(">Q", 99)
    for device in (2, 3):
        reply = honest_reply(keyring, device, req, right)
        reply.macs[b.client_id] = flipped(reply.macs[b.client_id])
        a.deliver(reply)
        b.deliver(reply)
    lie = honest_reply(keyring, 1, req, wrong)
    lie.macs[a.client_id] = flipped(lie.macs[a.client_id])
    a.deliver(lie)
    b.deliver(lie)

    assert a.accepted == {req: right} and a.observed == {req: right}
    assert a.replies == {req: {2: right, 3: right}} and a.ignored == 1
    assert b.accepted == {} and b.observed == {}
    assert b.replies == {req: {1: wrong}} and b.ignored == 2


def test_an_entry_under_another_replicas_key_is_rejected():
    cluster = BftCluster.build(n=3, f=1, seed=11)
    client = cluster.clients[0]
    req, value = client.issue(1), struct.pack(">Q", 1)
    statement = reply_statement(digest(req), digest(value))
    mac = keyed_blake2b(reply_key(cluster.cluster.seed, 3, client.client_id), statement)
    client.deliver(Reply(2, req, value, {client.client_id: mac}))
    assert client.ignored == 1 and client.replies == {}
    client.deliver(Reply(3, req, value, {client.client_id: mac}))
    assert client.ignored == 1 and client.replies == {req: {3: value}}


def test_an_hmac_sha384_entry_is_rejected():
    """HMAC-SHA-384, which the kernel's tags use, of the right statement
    under the right key is not a reply MAC."""
    cluster = BftCluster.build(n=3, f=1, seed=11)
    client = cluster.clients[0]
    req, value = client.issue(1), struct.pack(">Q", 1)
    statement = reply_statement(digest(req), digest(value))
    key = reply_key(cluster.cluster.seed, 2, client.client_id)
    old_mac = hmac.digest(key, statement, "sha384")
    client.deliver(Reply(2, req, value, {client.client_id: old_mac}))
    assert client.ignored == 1 and client.replies == {}
    client.deliver(Reply(2, req, value, {client.client_id: keyed_blake2b(key, statement)}))
    assert client.ignored == 1 and client.replies == {req: {2: value}}


def test_a_reply_without_this_clients_entry_is_ignored():
    cluster = BftCluster.build(n=3, f=1, seed=12)
    keyring = cluster.cluster.keyring
    client = cluster.clients[0]
    req, value = client.issue(1), struct.pack(">Q", 1)
    before = honest_reply(keyring, 2, req, value)
    late = QuorumClient(300, keyring, cluster.config.quorum)
    late.issued[req] = req
    late.deliver(before)                   # built before `late` enrolled
    late.deliver(honest_reply(keyring, 3, req, value)._replace(macs={}))
    assert late.ignored == 2 and late.replies == {}
    late.deliver(honest_reply(keyring, 2, req, value))
    assert late.ignored == 2 and late.replies == {req: {2: value}}


def test_a_client_enrolled_twice_gets_one_key():
    cluster = BftCluster.build(n=3, f=1, seed=13)
    keyring = cluster.cluster.keyring
    client = cluster.clients[0]
    req, value = client.issue(1), struct.pack(">Q", 1)
    first = honest_reply(keyring, 2, req, value)
    again = QuorumClient(client.client_id, keyring, cluster.config.quorum)
    keyring.enroll(client.client_id)
    second = honest_reply(keyring, 2, req, value)
    assert first.macs == second.macs and list(second.macs) == [client.client_id]
    client.deliver(first)
    again.deliver(second)
    assert client.ignored == again.ignored == 0


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
    the cluster, the replicas, the honest replies in signing order, every
    accepted value, and a client enrolled from the start that saw no reply."""
    if protocol == "bft":
        cluster = BftCluster.build(n=3, f=1, seed=len(bodies), clients=clients)
        devices = sorted(cluster.replicas)
    else:
        cluster = ChainCluster.build(n=3, f=1, seed=len(bodies), clients=clients)
        devices = cluster.order
    keyring = cluster.cluster.keyring
    witness = QuorumClient(999, keyring, cluster.config.quorum)
    replies: list[Reply] = []
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
    return cluster, devices, replies, accepted, witness


def _mutants(reply: Reply, client_id: int, position: int, mask: int,
             devices: list[int]):
    """Single-byte mutants of the request, the value and `client_id`'s MAC
    entry, and the reply relabelled with every other device."""
    req, value = bytearray(reply.req), bytearray(reply.value)
    mac = bytearray(reply.macs[client_id])
    req[position % len(req)] ^= mask
    value[position % len(value)] ^= mask
    mac[position % len(mac)] ^= mask
    yield reply._replace(req=bytes(req))
    yield reply._replace(value=bytes(value))
    yield reply._replace(macs={**reply.macs, client_id: bytes(mac)})
    for device in [*devices, 99]:
        if device != reply.device:
            yield reply._replace(device=device)


@seed(2502)
@settings(max_examples=30, deadline=None, database=None)   # the same 30 runs every time
@given(protocol=st.sampled_from(["bft", "cr"]), clients=st.integers(1, 3),
       bodies=st.lists(st.binary(max_size=40), min_size=1, max_size=3),
       position=st.integers(0, 1 << 16), mask=st.integers(1, 255))
def test_reply_path_rejects_every_single_byte_mutation(protocol, clients, bodies,
                                                        position, mask):
    cluster, devices, replies, accepted, witness = _run(protocol, clients, bodies)
    keyring = cluster.cluster.keyring
    assert len(accepted) == len(bodies)
    client_ids = [client.client_id for client in cluster.clients] + [witness.client_id]
    assert replies and all(sorted(reply.macs) == client_ids for reply in replies)

    # Every client rejects every mutant of its own entry.
    for reply in replies:
        for client_id in client_ids:
            assert keyring.check(reply, client_id)
            assert not any(keyring.check(m, client_id)
                           for m in _mutants(reply, client_id, position, mask, devices))

    # A client that issued every request sees its mutants before the honest replies.
    witness.issued = {req: req for req in accepted}
    mutants = [m for reply in replies
               for m in _mutants(reply, witness.client_id, position, mask, devices)]
    for mutant in mutants:
        witness.deliver(mutant)
    assert witness.ignored == len(mutants)
    assert witness.replies == {} and witness.accepted == {}
    for reply in replies:
        witness.deliver(reply)
    assert witness.ignored == len(mutants)
    assert witness.accepted == accepted


def counting_statement_builds(monkeypatch) -> list[bytes]:
    """Records the request of every statement `ReplyKeyring.check` builds;
    replicas build theirs through their own imports."""
    built: list[bytes] = []
    real = common.reply_statement
    monkeypatch.setattr(common, "reply_statement",
                        lambda req_digest, value_digest: built.append(req_digest)
                        or real(req_digest, value_digest))
    return built


def test_one_statement_build_per_request_when_four_clients_interleave(monkeypatch):
    """Four clients each have a request in flight, so the three outboxes
    hand every client replies to four requests in turn."""
    built = counting_statement_builds(monkeypatch)
    cluster = BftCluster.build(n=3, f=1, seed=1, clients=4)
    leader = cluster.replicas[cluster.leader_id]
    reqs = []
    for rnd in range(3):
        for client in cluster.clients:
            reqs.append(client.issue(rnd, b"body-%d" % rnd))
            leader.leader_handle(reqs[-1])
        cluster.drain()
    for client in cluster.clients:
        assert set(client.accepted) == set(client.issued)
    assert sorted(built) == sorted(digest(req) for req in reqs)


def test_one_statement_build_per_put_and_a_differing_value_still_fails(monkeypatch):
    built = counting_statement_builds(monkeypatch)
    puts = 8
    cluster = ChainCluster.build(n=5, f=2, seed=3, clients=0)
    client = ClosedLoopClient(cluster, puts)
    cluster.clients = [client]
    client.send_next()
    cluster.drain()
    assert len(client.accepted) == puts
    assert sorted(built) == sorted(digest(req) for req in client.sent)

    # The last put's statement is remembered; a value that differs from it
    # in the last of its 4 KiB alone must not reuse it.
    keyring, req = cluster.cluster.keyring, client.sent[-1]
    value = client.accepted[req]
    good = honest_reply(keyring, cluster.order[-1], req, value)
    assert keyring.check(good, client.client_id)
    bad = good._replace(value=value[:-1] + bytes([value[-1] ^ 1]))
    assert not keyring.check(bad, client.client_id)


def test_a_client_keys_what_it_accepts_by_the_bytes_it_issued():
    """Every chain node but the head replies with its own copy of the
    request; the client keys its accepted and observed results by its own
    bytes, so it holds one copy."""
    cluster = ChainCluster.build(n=5, f=2, seed=4)
    replies: list[Reply] = []
    sign = cluster.cluster.keyring.sign
    cluster.cluster.keyring.sign = lambda *args: replies.append(sign(*args)) or replies[-1]
    req = cluster.run_put(0, 1, b"k", b"v")
    client = cluster.clients[0]
    assert all(reply.req == req for reply in replies)
    assert sum(reply.req is not req for reply in replies) == len(replies) - 1
    (accepted,), (observed,) = client.accepted, client.observed
    assert accepted is req and observed is req and client.issued[req] is req


def test_a_client_keeps_one_copy_of_each_distinct_value():
    """Each chain node replies with its own output object; the client keeps
    the first and drops the equal copies, and what it records is unchanged."""
    cluster = ChainCluster.build(n=5, f=2, seed=4)
    keyring = cluster.cluster.keyring
    replies: list[Reply] = []
    sign = keyring.sign
    keyring.sign = lambda *args: replies.append(sign(*args)) or replies[-1]
    body = bytes(range(256)) * 16
    req = cluster.run_put(0, 1, b"k", body)
    client = cluster.clients[0]
    value = struct.pack(">Q", 1) + body

    assert len(replies) == 5 and len({id(reply.value) for reply in replies}) == 5
    per_device = client.replies[req]
    assert per_device == {reply.device: value for reply in replies}
    assert len({id(v) for v in per_device.values()}) == 1
    assert client.accepted == {req: value} and client.observed == {req: value}
