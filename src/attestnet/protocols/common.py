"""Shared protocol plumbing: configuration, reply authenticators, quorum
clients, and the session topology used by the replicated systems.

Clients are untrusted and hold no attestation session keys, so replies are
authenticated as in PBFT: replica d shares a key K(d, c) with each client c,
and a reply carries the request, the value, and one 48-byte keyed BLAKE2b MAC
(RFC 7693) per client of the 97-byte statement `0x01 ‖ H(req) ‖ H(value)`.
Keyed BLAKE2b is a MAC in one pass, where HMAC takes two nested hashes; the
kernel's tags stay HMAC-SHA-384. Unlike a signature, a MAC cannot convince a
third party; nothing here forwards a reply. Replies reach clients through
the replicas' outboxes, never over the simulated wire, so they have no byte
encoding and cost no simulated time. A client trusts a
result only after f+1 identical replies from distinct devices that reference
its own request bytes.

Every request's replies are checked on the host's hot path, so a client
counts the replies that match an arriving value in one loop, building no
list. A client keys what it accepts and observes by the bytes it issued, not
by a replica's copy of them, so it holds one copy of each request.

Session ids follow the layout in `device`: one transport session per pair
of devices, the only sessions reached from the wire, and one log session per
device, whose key is shared with every party that must verify that node's
locally attested messages (the unicast-multicast discipline). A log frame
never travels on its own: it rides inside a transport frame's payload (a BFT
proof, a chain level, a PeerReview response), and an endpoint rejects a copy
sent as a frame of its own. BFT and CR verify it with `local_verify` on the
session the reader names, which its header must name too; a PeerReview
response is checked by the witness that audits the child's log.
"""

import hashlib
import hmac
import struct
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from ..device import DeviceConfig, Endpoint, connect, log_session, transport_session
from ..errors import FrameError
from ..simnet import Network


def derive_key(seed: int, session: int) -> bytes:
    return hashlib.sha384(b"session-key:%d:%d" % (seed, session)).digest()[:32]


def reply_key(seed: int, device: int, client: int) -> bytes:
    """K(device, client), which MACs the device's replies to the client."""
    return hashlib.sha384(b"reply-key:%d:%d:%d" % (seed, device, client)).digest()[:32]


def digest(data: bytes) -> bytes:
    """H: SHA-384, as the tamper-evident log uses. The chain proof links its
    levels with it, and a reply statement binds the request and value with it."""
    return hashlib.sha384(data).digest()


@dataclass
class ProtocolConfig:
    """Replication parameters; quorum is always f+1 identical replies."""

    n: int
    f: int

    def __post_init__(self):
        if self.f < 0:
            raise ValueError(f"f must be >= 0, got {self.f}")
        if self.n < self.f + 1:
            raise ValueError("need at least f+1 nodes")

    @property
    def quorum(self) -> int:
        return self.f + 1


# -- client requests and authenticated replies --------------------------------

def encode_request(client: int, req_id: int, body: bytes = b"") -> bytes:
    return struct.pack(">IQ", client, req_id) + body


def decode_request(req: bytes) -> tuple[int, int, bytes]:
    """Inverse of encode_request; raises FrameError if the request is
    shorter than its 12-byte client id ‖ request id header."""
    if len(req) < 12:
        raise FrameError(f"request of {len(req)} bytes has no header")
    client, req_id = struct.unpack_from(">IQ", req)
    return client, req_id, req[12:]


def reply_statement(req_digest: bytes, value_digest: bytes) -> bytes:
    """What a reply's MACs cover: 0x01 ‖ H(req) ‖ H(value), 97 bytes."""
    return b"\x01" + req_digest + value_digest


def reply_mac(states: dict, key: bytes, statement: bytes) -> bytes:
    """48-byte keyed BLAKE2b of `statement` under `key`, byte-identical to
    `hashlib.blake2b(statement, key=key, digest_size=48).digest()`. `states`
    caches each key's keyed state, built on the key's first MAC and then
    only copied."""
    state = states.get(key)
    if state is None:
        state = states[key] = hashlib.blake2b(key=key, digest_size=48)
    state = state.copy()
    state.update(statement)
    return state.digest()


class Reply(NamedTuple):
    """A replica's answer to `req`; `macs[c]` is client c's entry.

    An immutable record, like `kernel.AttestedMessage` and for the same
    reason: one is built for every reply, and a NamedTuple costs less than
    half of a frozen dataclass to build."""

    device: int
    req: bytes
    value: bytes
    macs: dict[int, bytes]


# Statements `ReplyKeyring.check` keeps: one per request whose replies may
# still be arriving. 4 closed-loop BFT clients keep 4 in flight; 8 leaves room.
STATEMENTS_KEPT = 8


class ReplyKeyring:
    """The reply keys K(d, c) of every replica d and enrolled client c. A
    client enrolls when it is built; every reply `sign` builds from then on
    carries an entry for it, and enrolling again changes nothing.

    A replica MACs the reply statement `0x01 ‖ H(req) ‖ H(value)`, H =
    SHA-384, from digests it already holds. The statement has one fixed
    layout, so accepting a (req, value) pair no replica sent takes a MAC
    forgery or a SHA-384 collision; the leading byte keeps it apart from
    anything else such a key might MAC. `check` rebuilds the statement from
    the reply's own request and value: nothing is decoded, so only a MAC over
    other bytes, or under another replica's or client's key, fails.

    Every MAC is a keyed BLAKE2b (`reply_mac`): a key's keyed state is
    built on the first MAC under it, not at enrollment, and copied for every
    MAC. `check` reuses the last `STATEMENTS_KEPT` statements it built,
    since a chain reply's statement hashes about 8 KiB: the pump hands each
    reply to every client back to back, honest replicas reply with equal
    pairs for one request, and replies to several requests interleave (4 BFT
    clients' across 3 outboxes, a closed-loop chain client's next put with
    the last replies to its current one). It finds a statement by comparing the reply's
    request and value with `==`: each replica's pair is its own objects,
    which a dict would hash in full.
    """

    def __init__(self, devices: list[int], seed: int):
        self.seed = seed
        self._keys: dict[int, dict[int, bytes]] = {d: {} for d in devices}
        self._states: dict[bytes, object] = {}
        self._statements: deque[tuple[bytes, bytes, bytes]] = deque(
            maxlen=STATEMENTS_KEPT)

    def enroll(self, client_id: int) -> None:
        for device, keys in self._keys.items():
            if client_id not in keys:
                keys[client_id] = reply_key(self.seed, device, client_id)

    def sign(self, device: int, req: bytes, value: bytes, statement: bytes) -> Reply:
        """Authenticate `statement`, which the caller built with
        `reply_statement` from the digests of `req` and `value`, for every
        enrolled client."""
        return Reply(device, req, value,
                     {client: reply_mac(self._states, key, statement)
                      for client, key in self._keys[device].items()})

    def check(self, reply: Reply, client_id: int) -> bool:
        """True iff the reply's entry for `client_id` is the MAC of its
        statement under K(reply.device, client_id)."""
        keys = self._keys.get(reply.device)
        mac = reply.macs.get(client_id)
        if keys is None or mac is None or client_id not in keys:
            return False
        req, value = reply.req, reply.value
        for seen_req, seen_value, statement in self._statements:
            if seen_req == req and seen_value == value:
                break
        else:
            statement = reply_statement(digest(req), digest(value))
            self._statements.append((req, value, statement))
        return hmac.compare_digest(mac, reply_mac(self._states, keys[client_id], statement))


class QuorumClient:
    """Accepts a value only on f+1 identical valid replies to its own request.

    The client enrolls with the keyring when it is built, and keeps
    per-request observations for requests it merely witnesses; agreement
    assertions compare these across clients. Any quorum of f+1 contains at
    least one correct replica, so two clients can never settle on different
    values for the same request. The first reply per device counts, so a
    re-issued request keeps its first accepted value, and a value equal to
    one another device sent for the request is stored as that one object.
    `ignored` counts the replies whose entry for this client does not check.
    """

    def __init__(self, client_id: int, keyring: ReplyKeyring, quorum: int):
        self.client_id = client_id
        self.keyring = keyring
        self.quorum = quorum
        # Each request this client issued, mapped to itself: the membership
        # test yields the client's own bytes, which key `accepted` and
        # `observed`, so the client holds one copy of each request.
        self.issued: dict[bytes, bytes] = {}
        self.replies: dict[bytes, dict[int, bytes]] = {}
        self.accepted: dict[bytes, bytes] = {}
        self.observed: dict[bytes, bytes] = {}
        self.ignored = 0
        keyring.enroll(client_id)

    def issue(self, req_id: int, body: bytes = b"") -> bytes:
        req = encode_request(self.client_id, req_id, body)
        self.issued[req] = req
        return req

    def deliver(self, reply: Reply) -> None:
        if not self.keyring.check(reply, self.client_id):
            self.ignored += 1
            return
        req, value = reply.req, reply.value
        per_req = self.replies.setdefault(req, {})
        if reply.device in per_req:
            return              # first reply per device counts
        votes = 1
        for seen in per_req.values():
            if seen == value:
                if votes == 1:
                    value = seen    # one copy of each distinct value
                votes += 1
        per_req[reply.device] = value
        if votes < self.quorum:
            return              # only the arriving value's count moved
        mine = self.issued.get(req)
        if mine is None:
            self.observed.setdefault(req, value)
        else:
            # original request is ours: the result is trusted
            self.observed.setdefault(mine, value)
            self.accepted.setdefault(mine, value)

    def accepted_value(self, req: bytes) -> bytes | None:
        return self.accepted.get(req)


def pump(net: Network, nodes: list, clients: list[QuorumClient]) -> None:
    """Run a cluster until nothing is left to do.

    Each pass does three things, in this order:

    1. deliver every frame the network holds (`run_until_quiescent`);
    2. call `step()` on every node, in the order given, so each node handles
       what was delivered to it;
    3. pop each node's `outbox_replies` first-in first-out, node by node in
       the order given, and hand each reply to every client. Nodes without
       an outbox (PeerReview) skip this.

    The pump stops after the first pass that leaves the network holding
    nothing and every outbox empty. Nodes reach each other only through the
    network and clients only through the outboxes, and a step handles all
    that was delivered to it, so a further pass would find nothing to do.
    The order is part of the simulated results, not a detail: a closed-loop
    client submits its next request from inside `deliver`, so that request's
    frames, and every simulated time after them, depend on which replies it
    has already seen. A reply appended while the outboxes are emptied (a
    chain head answers as it executes) is handed out in the same pass if its
    node comes later in the order, and in the next pass otherwise.
    """
    outboxes = [node.outbox_replies for node in nodes if hasattr(node, "outbox_replies")]
    while True:
        net.run_until_quiescent()
        for node in nodes:
            node.step()
        for outbox in outboxes:
            while outbox:
                reply = outbox.pop(0)
                for client in clients:
                    client.deliver(reply)
        if not net.has_pending() and not any(outboxes):
            return


# -- topology ------------------------------------------------------------------

@dataclass
class ClusterNet:
    net: Network
    endpoints: dict[int, Endpoint]
    keyring: ReplyKeyring
    seed: int


def build_cluster(devices: list[int], seed: int,
                  attest_delay_ns: int = 0,
                  net: Network | None = None) -> ClusterNet:
    """Full mesh of transport sessions plus one shared log session per device.

    Every device can locally verify every other device's log stream, which is
    what makes unicast of one attested message an equivocation-free multicast.
    """
    net = Network() if net is None else net
    secrets: dict[int, list[tuple[int, int, bytes]]] = {d: [] for d in devices}
    for i, a in enumerate(devices):
        for b in devices[i + 1:]:
            session = transport_session(a, b)
            key = derive_key(seed, session)
            secrets[a].append((session, b, key))
            secrets[b].append((session, a, key))
    for owner in devices:
        session = log_session(owner)
        key = derive_key(seed, session)
        for device in devices:
            secrets[device].append((session, owner, key))
    endpoints = {d: connect(DeviceConfig(d, attest_delay_ns), net) for d in devices}
    for d, endpoint in endpoints.items():
        endpoint.provision(secrets[d])
    keyring = ReplyKeyring(devices, seed)
    return ClusterNet(net=net, endpoints=endpoints, keyring=keyring, seed=seed)
