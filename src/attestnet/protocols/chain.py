"""Byzantine chain replication over a key-value machine.

Requests enter at the head, which executes them and starts the proof of
execution; each node down the chain re-derives the expected output with its
own replica of the deterministic machine, checks the proof, adds its own
level, and forwards. The proof is flat and linked by digests, H = SHA-384.
Node k attests one small level frame on its log session:

    level 0:  POE_BASE  ‖ H(req) ‖ H(out_0)
    level k:  POE_CHAIN ‖ H(level k-1 frame) ‖ H(out_k)

A transport frame carries the request once plus every upstream level frame,
position 0 first (`encode_proof`). The validator at position p hashes the
request and its expected output once each, then checks each level in order:
its tag and attester (`local_verify`), its link to the request or to the level
before, and its output digest. Any failure accuses p-1 and names the failing
level's node: p-1 alone sends on the MACed transport session, and an honest
node validates every level before it extends the proof and stops once it
flags, so p-1 made the fault or forwarded it. Each hop MACs the request once
plus p small levels, so the cost no longer grows with chain length x payload.

Reads cannot be served locally by the tail in the Byzantine model; every
operation traverses the chain and every node replies to the client.
A Byzantine node overrides only `attested_output`, the output it attests.
A node that flags its chain accepts nothing more from it.

`ChainCluster.drain` runs the shared `common.pump` over the nodes in chain
order, handing every reply to every client.
"""

import hashlib
import struct
from dataclasses import dataclass, field

from ..device import pack_batch, unpack_batch
from ..errors import ChainValidationFailure, FrameError, KernelError
from ..wire import decode_frame, encode_frame
from .common import (
    ClusterNet,
    ProtocolConfig,
    QuorumClient,
    SignedReply,
    build_cluster,
    encode_reply_payload,
    log_session,
    pump,
    transport_session,
)

OP_PUT = 0x50
OP_GET = 0x47

POE_BASE = 0x52      # "R": level 0 attests POE_BASE ‖ H(req) ‖ H(out)
POE_CHAIN = 0x43     # "C": level k attests POE_CHAIN ‖ H(level k-1 frame) ‖ H(out)
DIGEST_LEN = 48      # SHA-384


def encode_op(op: int, key: bytes, value: bytes = b"") -> bytes:
    return bytes([op]) + struct.pack(">I", len(key)) + key + value


def decode_op(body: bytes) -> tuple[int, bytes, bytes]:
    op = body[0]
    (klen,) = struct.unpack_from(">I", body, 1)
    key = body[5:5 + klen]
    return op, key, body[5 + klen:]


class KvMachine:
    """In-memory map plus commit index; the deterministic replicated state."""

    def __init__(self):
        self.store: dict[bytes, bytes] = {}
        self.commit_index = 0

    def peek(self, body: bytes) -> bytes:
        """Output this machine would produce, without committing."""
        op, key, value = decode_op(body)
        next_index = self.commit_index + 1
        if op == OP_PUT:
            result = value
        elif op == OP_GET:
            result = self.store.get(key, b"")
        else:
            result = b""
        return struct.pack(">Q", next_index) + result

    def apply(self, body: bytes) -> bytes:
        output = self.peek(body)
        op, key, value = decode_op(body)
        if op == OP_PUT:
            self.store[key] = value
        self.commit_index += 1
        return output


def digest(data: bytes) -> bytes:
    """H, the hash that links the proof: SHA-384, as the tamper-evident log uses."""
    return hashlib.sha384(data).digest()


def encode_proof(req: bytes, levels: list[bytes]) -> bytes:
    """Transport proof: the request once, then the level frames, position 0 first."""
    return pack_batch([req, *levels])


def peel_poe(proof: bytes) -> tuple[bytes, list[bytes]]:
    """Split a transport proof into (req, [level frame] in chain order,
    position 0 first). Raises FrameError if the proof does not parse."""
    req, *levels = unpack_batch(proof)
    return req, levels


@dataclass
class ChainFlag:
    accuser: int
    accused_position: int
    reason: str


@dataclass
class ChainNode:
    node_id: int
    position: int
    order: list[int]
    config: ProtocolConfig
    cluster: ClusterNet
    machine: KvMachine = field(default_factory=KvMachine)
    flags: list[ChainFlag] = field(default_factory=list)
    outbox_replies: list[SignedReply] = field(default_factory=list)

    def __post_init__(self):
        self.endpoint = self.cluster.endpoints[self.node_id]
        # Transport sessions to the neighbours; None past either end.
        self.upstream_session = (
            None if self.is_head
            else transport_session(self.node_id, self.order[self.position - 1]))
        self.downstream_session = (
            None if self.is_tail
            else transport_session(self.node_id, self.order[self.position + 1]))

    @property
    def is_head(self) -> bool:
        return self.position == 0

    @property
    def is_tail(self) -> bool:
        return self.position == len(self.order) - 1

    # -- head ------------------------------------------------------------------

    def head_handle(self, req: bytes) -> None:
        body = req[12:]   # strip client/req_id prefix for execution
        out = self.machine.apply(body)
        level = self._attest_level(POE_BASE, digest(req), digest(out))
        if not self.is_tail:
            self.endpoint.auth_send(self.downstream_session, encode_proof(req, [level]))
        self._reply_client(req, out)

    # -- middle / tail ------------------------------------------------------------

    def validate_chain(self, proof: bytes
                       ) -> tuple[bytes, list[bytes], bytes, bytes, bytes]:
        """Verify every upstream level; any failure accuses the upstream node.

        Returns (req, upstream level frames, expected output, H(expected
        output), H(last level frame)), the last two for this node's own level.
        """
        upstream = self.position - 1
        try:
            req, levels = peel_poe(proof)
        except FrameError as exc:
            raise ChainValidationFailure(upstream, str(exc)) from None
        if len(levels) != self.position:
            raise ChainValidationFailure(
                upstream, f"{len(levels)} levels, expected {self.position}")
        expected_out = self.machine.peek(req[12:])
        out_digest = digest(expected_out)
        link = digest(req)
        for position, frame in enumerate(levels):
            node = self.order[position]
            session = log_session(node)
            try:
                level = decode_frame(frame)
                self.endpoint.local_verify(session, level)
            except (FrameError, KernelError) as exc:
                raise ChainValidationFailure(
                    upstream, f"{type(exc).__name__} at node {node}") from None
            payload = level.payload
            kind = POE_CHAIN if position else POE_BASE
            # The header's session id is outside the MAC, so it is checked here.
            if (level.session != session
                    or payload[:1 + DIGEST_LEN] != bytes([kind]) + link):
                raise ChainValidationFailure(upstream, f"link mismatch at node {node}")
            if payload[1 + DIGEST_LEN:] != out_digest:
                raise ChainValidationFailure(
                    upstream, f"output mismatch at node {node}")
            link = digest(frame)
        return req, levels, expected_out, out_digest, link

    def middle_tail_handle(self, proof: bytes) -> None:
        if self.flags:
            # Once this node has flagged its chain it stops accepting from it:
            # its machine skipped the flagged commit, so every later output
            # would mismatch and accuse an honest upstream node.
            return
        try:
            req, levels, expected_out, out_digest, link = self.validate_chain(proof)
        except ChainValidationFailure as exc:
            self.flags.append(ChainFlag(self.node_id, exc.position, exc.detail))
            return
        out = self.attested_output(self.machine.apply(req[12:]))
        if out != expected_out:
            out_digest = digest(out)
        level = self._attest_level(POE_CHAIN, link, out_digest)
        if not self.is_tail:
            self.endpoint.auth_send(self.downstream_session,
                                    encode_proof(req, levels + [level]))
        self._reply_client(req, out)

    def _attest_level(self, kind: int, link: bytes, out_digest: bytes) -> bytes:
        """Attest this node's level of the proof on its log session."""
        level = self.endpoint.local_send(log_session(self.node_id),
                                         bytes([kind]) + link + out_digest)
        return encode_frame(level)

    def attested_output(self, out: bytes) -> bytes:
        """The output this node attests, forwards and replies with, given the
        one its machine just committed; a correct node passes it through."""
        return out

    def _reply_client(self, req: bytes, out: bytes) -> None:
        payload = encode_reply_payload(req, out)
        self.outbox_replies.append(self.cluster.keyring.sign(self.node_id, payload))

    def step(self) -> bool:
        if self.is_head:
            return False
        progressed = False
        for msg in self.endpoint.poll(self.upstream_session):
            progressed = True
            self.middle_tail_handle(msg.payload)
        return progressed


class LyingMiddle(ChainNode):
    """Byzantine middle node: attests a deviated output at one round."""

    def __init__(self, *args, lie_at_commit: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.lie_at_commit = lie_at_commit

    def attested_output(self, out: bytes) -> bytes:
        if self.machine.commit_index == self.lie_at_commit:
            return struct.pack(">Q", self.machine.commit_index + 41) + b"bogus"
        return out


class ChainCluster:
    """Harness: a fixed chain order plus quorum clients."""

    def __init__(self, cluster: ClusterNet, config: ProtocolConfig,
                 nodes: dict[int, ChainNode], order: list[int],
                 clients: list[QuorumClient]):
        self.cluster = cluster
        self.config = config
        self.nodes = nodes
        self.order = order
        self.clients = clients

    @classmethod
    def build(cls, n: int = 3, f: int = 1, seed: int = 0,
              node_cls_at: dict[int, type] | None = None,
              node_kwargs_at: dict[int, dict] | None = None,
              clients: int = 1, attest_delay_ns: int = 0) -> "ChainCluster":
        devices = list(range(1, n + 1))
        cluster = build_cluster(devices, seed, attest_delay_ns=attest_delay_ns)
        order = devices[:]
        config = ProtocolConfig(n=n, f=f)
        nodes: dict[int, ChainNode] = {}
        for position, device in enumerate(order):
            node_cls = (node_cls_at or {}).get(position, ChainNode)
            kwargs = (node_kwargs_at or {}).get(position, {})
            nodes[device] = node_cls(device, position, order, config, cluster,
                                     **kwargs)
        client_objs = [QuorumClient(200 + i, cluster.keyring, config.quorum)
                       for i in range(clients)]
        return cls(cluster, config, nodes, order, client_objs)

    def drain(self) -> None:
        """Pump the network, nodes in chain order, and clients until quiescent."""
        pump(self.cluster.net, [self.nodes[d] for d in self.order], self.clients)

    def run_put(self, client_index: int, req_id: int, key: bytes,
                value: bytes) -> bytes:
        client = self.clients[client_index]
        req = client.issue(req_id, encode_op(OP_PUT, key, value))
        self.nodes[self.order[0]].head_handle(req)
        self.drain()
        return req

    def run_get(self, client_index: int, req_id: int, key: bytes) -> bytes:
        client = self.clients[client_index]
        req = client.issue(req_id, encode_op(OP_GET, key))
        self.nodes[self.order[0]].head_handle(req)
        self.drain()
        return req

    def commit_histories(self) -> dict[int, list[int]]:
        """Each node's committed indexes: a machine commits 1, 2, ... in turn."""
        return {d: list(range(1, node.machine.commit_index + 1))
                for d, node in self.nodes.items()}

    def all_flags(self) -> list[ChainFlag]:
        out = []
        for device in self.order:
            out.extend(self.nodes[device].flags)
        return out
