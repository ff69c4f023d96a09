"""Byzantine chain replication over a key-value machine.

Requests enter at the head and pass down the chain once. Each node, the head
included, decodes the request and its op once, computes the output once on
its own replica of the deterministic machine, and hands both to `_commit`,
which commits, attests the node's level, forwards the proof unless the node is
the tail, and replies. The head decodes in `head_handle`, a node below it in
`validate_chain`, which checks the proof against that output.

The proof is flat and linked by digests, H = SHA-384. Node k attests one small
level frame on its log session:

    level 0:  POE_BASE  ‖ H(req) ‖ H(out_0)
    level k:  POE_CHAIN ‖ H(level k-1 frame) ‖ H(out_k)

A transport frame carries the request once plus every upstream level frame,
position 0 first (`encode_proof`). The validator at position p hashes the
request and its expected output once each, then checks each level in order:
its header session, tag and attester (`local_verify`), its link to the
request or to the level before, and its output digest. Any failure is a
`transform.Flag` accusing p-1's device, its reason naming the failing level's
node: p-1 alone sends on the MACed transport session, and an honest node
validates every level before it extends the proof and stops once it flags,
so p-1 made the fault or forwarded it. Each hop MACs the request once
plus p small levels, so the cost no longer grows with chain length x payload.

Reads cannot be served locally by the tail in the Byzantine model; every
operation traverses the chain and every node replies to the client with
(req, out) and one MAC per client over `0x01 ‖ H(req) ‖ H(out)`
(`common.reply_statement`), built from the digests its own level already
holds, so authenticating a reply hashes nothing new.
A Byzantine node, the head included, overrides only `attested_output`, the
output it attests, and is then marked `deviated`. A node that flags its chain
accepts nothing more from it.

`ChainCluster.drain` runs the shared `common.pump` over the nodes in chain
order, handing every reply to every client.
"""

import struct
from dataclasses import dataclass, field

from ..device import pack_batch, pack_pair, unpack_batch, unpack_pair
from ..errors import ChainValidationFailure, FrameError, KernelError
from ..transform import Flag
from ..wire import FRAME_OVERHEAD, decode_frame, encode_frame
from .common import (
    ClusterNet,
    ProtocolConfig,
    QuorumClient,
    Reply,
    build_cluster,
    decode_request,
    digest,
    log_session,
    pump,
    reply_statement,
    transport_session,
)

OP_PUT = 0x50
OP_GET = 0x47

POE_BASE = 0x52      # "R": level 0 attests POE_BASE ‖ H(req) ‖ H(out)
POE_CHAIN = 0x43     # "C": level k attests POE_CHAIN ‖ H(level k-1 frame) ‖ H(out)
DIGEST_LEN = 48      # SHA-384


def encode_op(op: int, key: bytes, value: bytes = b"") -> bytes:
    return bytes([op]) + pack_pair(key, value)


def decode_op(body: bytes) -> tuple[int, bytes, bytes]:
    """Inverse of encode_op; raises FrameError if the key does not fit."""
    if not body:
        raise FrameError("empty op")
    key, value = unpack_pair(body[1:])
    return body[0], key, value


Op = tuple[int, bytes, bytes]    # (op, key, value), as decode_op returns it


class KvMachine:
    """In-memory map plus commit index; the deterministic replicated state."""

    def __init__(self):
        self.store: dict[bytes, bytes] = {}
        self.commit_index = 0

    def output(self, op: int, key: bytes, value: bytes) -> bytes:
        """The output of committing this op next; commits nothing."""
        if op == OP_GET:
            value = self.store.get(key, b"")
        elif op != OP_PUT:
            value = b""
        return struct.pack(">Q", self.commit_index + 1) + value

    def commit(self, op: int, key: bytes, value: bytes) -> None:
        if op == OP_PUT:
            self.store[key] = value
        self.commit_index += 1


def encode_proof(req: bytes, levels: list[bytes]) -> bytes:
    """Transport proof: the request once, then the level frames, position 0 first."""
    return pack_batch([req, *levels])


def put_proof_len(n: int, key_len: int, value_len: int) -> int:
    """The largest payload a put hands the kernel when n > 1: the proof into the tail,
    the request (17 bytes past key and value) and n-1 levels of FRAME_OVERHEAD + 97."""
    return 8 + 17 + key_len + value_len + (n - 1) * (4 + FRAME_OVERHEAD + 1 + 2 * DIGEST_LEN)


def peel_poe(proof: bytes) -> tuple[bytes, list[bytes]]:
    """Split a transport proof into (req, [level frame] in chain order,
    position 0 first). Raises FrameError if the proof does not parse or
    holds no request."""
    records = unpack_batch(proof)
    if not records:
        raise FrameError("proof without a request")
    return records[0], records[1:]


@dataclass
class ChainNode:
    node_id: int
    position: int
    order: list[int]
    cluster: ClusterNet
    machine: KvMachine = field(default_factory=KvMachine)
    flags: list[Flag] = field(default_factory=list)
    outbox_replies: list[Reply] = field(default_factory=list)
    deviated: bool = False      # `attested_output` changed a committed output

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
        try:
            op = decode_op(decode_request(req)[2])
        except FrameError:
            return   # a client request that is not an op: nothing to commit
        req_digest = digest(req)
        self._commit(req, [], op, self.machine.output(*op), req_digest, req_digest)

    # -- middle / tail ------------------------------------------------------------

    def validate_chain(self, proof: bytes) -> tuple[
            bytes, list[bytes], Op, bytes, bytes, bytes, bytes]:
        """Verify every upstream level; any failure raises
        ChainValidationFailure, which accuses the upstream neighbour.

        Returns (req, upstream level frames, decoded op, expected output,
        H(req), H(expected output), H(last level frame)): what `_commit`
        needs to commit the op and attest, forward and reply without decoding
        or executing it again.
        """
        try:
            req, levels = peel_poe(proof)
        except FrameError as exc:
            raise ChainValidationFailure(str(exc)) from None
        if len(levels) != self.position:
            raise ChainValidationFailure(f"{len(levels)} levels, expected {self.position}")
        try:
            op = decode_op(decode_request(req)[2])
        except FrameError as exc:
            raise ChainValidationFailure(f"request: {exc}") from None
        expected_out = self.machine.output(*op)
        out_digest = digest(expected_out)
        req_digest = link = digest(req)
        for position, frame in enumerate(levels):
            node = self.order[position]
            try:
                payload = self.endpoint.local_verify(
                    log_session(node), decode_frame(frame)).payload
            except (FrameError, KernelError) as exc:
                raise ChainValidationFailure(f"{type(exc).__name__} at node {node}") from None
            kind = POE_CHAIN if position else POE_BASE
            if payload[:1 + DIGEST_LEN] != bytes([kind]) + link:
                raise ChainValidationFailure(f"link mismatch at node {node}")
            if payload[1 + DIGEST_LEN:] != out_digest:
                raise ChainValidationFailure(f"output mismatch at node {node}")
            link = digest(frame)
        return req, levels, op, expected_out, req_digest, out_digest, link

    def middle_tail_handle(self, proof: bytes) -> None:
        if self.flags:
            # Once this node has flagged its chain it stops accepting from it:
            # its machine skipped the flagged commit, so every later output
            # would mismatch and accuse an honest upstream node.
            return
        try:
            (req, levels, op, out, req_digest, out_digest,
             link) = self.validate_chain(proof)
        except ChainValidationFailure as exc:
            self.flags.append(Flag(self.node_id, self.order[self.position - 1], str(exc)))
            return
        self._commit(req, levels, op, out, req_digest, link, out_digest)

    # -- every position ----------------------------------------------------------

    def _commit(self, req: bytes, levels: list[bytes], op: Op, out: bytes,
                req_digest: bytes, link: bytes, out_digest: bytes | None = None
                ) -> None:
        """Commit `op`, whose output `out` the machine computed just before;
        then attest this node's level, linked to `link` (H(req) at the head),
        forward the proof unless this node is the tail, and reply.
        `out_digest` is H(out) when the caller already holds it."""
        self.machine.commit(*op)
        attested = self.attested_output(out)
        if attested != out:
            self.deviated = True
            out_digest = digest(attested)
        elif out_digest is None:
            out_digest = digest(out)
        kind = POE_CHAIN if self.position else POE_BASE
        level = encode_frame(self.endpoint.local_send(
            log_session(self.node_id), bytes([kind]) + link + out_digest))
        if not self.is_tail:
            self.endpoint.auth_send(self.downstream_session,
                                    encode_proof(req, levels + [level]))
        self.outbox_replies.append(self.cluster.keyring.sign(
            self.node_id, req, attested, reply_statement(req_digest, out_digest)))

    def attested_output(self, out: bytes) -> bytes:
        """The output this node attests, forwards and replies with, given the
        one its machine just committed; a correct node passes it through."""
        return out

    def step(self) -> bool:
        if self.is_head:
            return False
        progressed = False
        for msg in self.endpoint.poll(self.upstream_session):
            progressed = True
            self.middle_tail_handle(msg.payload)
        return progressed


class LyingMiddle(ChainNode):
    """Byzantine node at any position: attests a deviated output at one round."""

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
        config = ProtocolConfig(n=n, f=f)
        devices = list(range(1, n + 1))
        cluster = build_cluster(devices, seed, attest_delay_ns=attest_delay_ns)
        order = devices[:]
        nodes: dict[int, ChainNode] = {}
        for position, device in enumerate(order):
            node_cls = (node_cls_at or {}).get(position, ChainNode)
            kwargs = (node_kwargs_at or {}).get(position, {})
            nodes[device] = node_cls(device, position, order, cluster, **kwargs)
        client_objs = [QuorumClient(200 + i, cluster.keyring, config.quorum)
                       for i in range(clients)]
        return cls(cluster, config, nodes, order, client_objs)

    def drain(self) -> None:
        """Pump the network, nodes in chain order, and clients until quiescent."""
        pump(self.cluster.net, [self.nodes[d] for d in self.order], self.clients)

    def run_request(self, client_index: int, req_id: int, body: bytes) -> bytes:
        """One round: the client issues an op, the head handles it, and the
        cluster drains."""
        req = self.clients[client_index].issue(req_id, body)
        self.nodes[self.order[0]].head_handle(req)
        self.drain()
        return req

    def run_put(self, client_index: int, req_id: int, key: bytes,
                value: bytes) -> bytes:
        return self.run_request(client_index, req_id, encode_op(OP_PUT, key, value))

    def commit_histories(self) -> dict[int, list[int]]:
        """Each node's committed indexes: a machine commits 1, 2, ... in turn."""
        return {d: list(range(1, node.machine.commit_index + 1))
                for d, node in self.nodes.items()}

    def all_flags(self) -> list[Flag]:
        out = []
        for device in self.order:
            out.extend(self.nodes[device].flags)
        return out
