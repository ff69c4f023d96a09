"""Shared protocol plumbing: configuration, reply signing, quorum clients,
and the session topology used by the replicated systems.

Clients are untrusted and hold no attestation session keys, so replica
replies travel as Ed25519 signature-wrapped payloads (each device gets a
reply keypair at bootstrap; the public halves are distributed to clients).
A client trusts a result only after f+1 identical replies from distinct
devices that reference its own request bytes.

Session id scheme (32-bit space):
    transport between devices a < b : 0x0100_0000 | a << 8 | b
    attestation log of device d     : 0x0200_0000 | d
Log-session keys are shared with every party that must verify that node's
locally attested messages (the unicast-multicast discipline).
"""

import hashlib
import random
import struct
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from ..device import DeviceConfig, Endpoint, SessionConfig, SimClock, connect
from ..simnet import Network

TRANSPORT_BASE = 0x0100_0000
LOG_BASE = 0x0200_0000


def transport_session(a: int, b: int) -> int:
    lo, hi = (a, b) if a < b else (b, a)
    return TRANSPORT_BASE | (lo << 8) | hi


def log_session(device: int) -> int:
    return LOG_BASE | device


def derive_key(seed: int, session: int) -> bytes:
    return hashlib.sha384(b"session-key:%d:%d" % (seed, session)).digest()[:32]


@dataclass
class ProtocolConfig:
    """Replication parameters; quorum is always f+1 identical replies."""

    n: int
    f: int

    def __post_init__(self):
        if self.n < self.f + 1:
            raise ValueError("need at least f+1 nodes")

    @property
    def quorum(self) -> int:
        return self.f + 1


# -- client requests and signed replies ---------------------------------------

def encode_request(client: int, req_id: int, body: bytes = b"") -> bytes:
    return struct.pack(">IQ", client, req_id) + body

def decode_request(req: bytes) -> tuple[int, int, bytes]:
    client, req_id = struct.unpack_from(">IQ", req)
    return client, req_id, req[12:]


def encode_reply_payload(req: bytes, value: bytes) -> bytes:
    return struct.pack(">I", len(req)) + req + value


def decode_reply_payload(payload: bytes) -> tuple[bytes, bytes]:
    (req_len,) = struct.unpack_from(">I", payload)
    return payload[4:4 + req_len], payload[4 + req_len:]


@dataclass(frozen=True)
class SignedReply:
    device: int
    payload: bytes
    signature: bytes


class ReplyKeyring:
    """Per-device reply keypairs (C_priv) plus the public registry (C_pub).

    The public key objects are built once, here, not on every check.

    `check` remembers the last reply that verified and answers an identical
    reply without running Ed25519 again. This is sound because the memo is
    keyed on the whole `SignedReply` (device, payload and signature, compared
    by equality): a reply that differs in any byte, or names another device,
    is verified afresh. Failed verifications are not remembered. One entry
    is enough because the clusters hand each reply to every client back to
    back, so all clients sharing this keyring check the same reply in a row.
    """

    def __init__(self, devices: list[int], rng: random.Random):
        self._priv: dict[int, Ed25519PrivateKey] = {}
        self.pubs: dict[int, Ed25519PublicKey] = {}
        for device in devices:
            key = Ed25519PrivateKey.from_private_bytes(rng.randbytes(32))
            self._priv[device] = key
            self.pubs[device] = key.public_key()
        self._last_verified: SignedReply | None = None

    def sign(self, device: int, payload: bytes) -> SignedReply:
        return SignedReply(device=device, payload=payload,
                           signature=self._priv[device].sign(payload))

    def check(self, reply: SignedReply) -> bool:
        if reply == self._last_verified:
            return True
        pub = self.pubs.get(reply.device)
        if pub is None:
            return False
        try:
            pub.verify(reply.signature, reply.payload)
        except InvalidSignature:
            return False
        self._last_verified = reply
        return True


class QuorumClient:
    """Accepts a value only on f+1 identical signed replies to its own request.

    The client also keeps per-request observations for requests it merely
    witnesses; agreement assertions compare these across clients. Any quorum
    of f+1 contains at least one correct replica, so two clients can never
    settle on different values for the same request. `ignored` counts the
    replies whose signature does not check.
    """

    def __init__(self, client_id: int, keyring: ReplyKeyring, quorum: int):
        self.client_id = client_id
        self.keyring = keyring
        self.quorum = quorum
        self.issued: set[bytes] = set()
        self.replies: dict[bytes, dict[int, bytes]] = {}
        self.accepted: dict[bytes, bytes] = {}
        self.observed: dict[bytes, bytes] = {}
        self.ignored = 0

    def issue(self, req_id: int, body: bytes = b"") -> bytes:
        req = encode_request(self.client_id, req_id, body)
        self.issued.add(req)
        return req

    def deliver(self, reply: SignedReply) -> None:
        if not self.keyring.check(reply):
            self.ignored += 1
            return
        req, value = decode_reply_payload(reply.payload)
        per_req = self.replies.setdefault(req, {})
        if reply.device in per_req:
            return              # first reply per device counts
        per_req[reply.device] = value
        counts: dict[bytes, int] = {}
        quorum_value = None
        for v in per_req.values():
            counts[v] = counts.get(v, 0) + 1
            if counts[v] >= self.quorum:
                quorum_value = v
        if quorum_value is None:
            return
        self.observed.setdefault(req, quorum_value)
        if req in self.issued:
            # original request is ours: the result is trusted
            self.accepted.setdefault(req, quorum_value)

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
                  verify_delay_ns: int | None = None,
                  extra_log_readers: dict[int, list[int]] | None = None,
                  net: Network | None = None) -> ClusterNet:
    """Full mesh of transport sessions plus one shared log session per device.

    Every device can locally verify every other device's log stream, which is
    what makes unicast of one attested message an equivocation-free multicast.
    """
    if net is None:
        net = Network(clock=SimClock())
    for device in devices:
        net.declare_device(device)
    configs: dict[int, list[SessionConfig]] = {d: [] for d in devices}
    for i, a in enumerate(devices):
        for b in devices[i + 1:]:
            session = transport_session(a, b)
            key = derive_key(seed, session)
            configs[a].append(SessionConfig(session, b, key))
            configs[b].append(SessionConfig(session, a, key))
    for owner in devices:
        session = log_session(owner)
        key = derive_key(seed, session)
        for device in devices:
            peer = owner if device != owner else device
            configs[device].append(SessionConfig(session, peer, key))
    endpoints = {}
    for device in devices:
        cfg = DeviceConfig(device=device, sessions=configs[device],
                           attest_delay_ns=attest_delay_ns,
                           verify_delay_ns=verify_delay_ns)
        endpoints[device] = connect(cfg, net)
    keyring = ReplyKeyring(devices, random.Random(seed ^ 0xC11E27))
    return ClusterNet(net=net, endpoints=endpoints, keyring=keyring, seed=seed)
