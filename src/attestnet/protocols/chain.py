"""Byzantine chain replication over a key-value machine.

Requests enter at the head, which executes and attests (request ‖ output);
each node down the chain re-derives the expected output with its own replica
of the deterministic machine, verifies every upstream attestation wrapper,
appends its own attested output, and forwards. The proof of execution nests:
node k's attestation covers the entire prefix through node k-1, so any
upstream lie is caught by the first downstream validator at the exact lying
position. Reads cannot be served locally by the tail in the Byzantine model;
every operation traverses the chain and every node replies to the client.
"""

import struct
from dataclasses import dataclass, field

from ..errors import (
    AuthFailure,
    ChainValidationFailure,
    CounterMismatch,
    KernelError,
)
from ..wire import decode_frame, encode_frame
from .common import (
    ClusterNet,
    ProtocolConfig,
    QuorumClient,
    SignedReply,
    build_cluster,
    encode_reply_payload,
    log_session,
    transport_session,
)

OP_PUT = 0x50
OP_GET = 0x47

POE_BASE = 0x52      # "R": payload is req ‖ out
POE_CHAIN = 0x43     # "C": payload is previous wrapper frame ‖ out


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
        self.commit_history: list[int] = []

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
        self.commit_history.append(self.commit_index)
        return output


def encode_poe_base(req: bytes, out: bytes) -> bytes:
    return (bytes([POE_BASE]) + struct.pack(">I", len(req)) + req
            + struct.pack(">I", len(out)) + out)


def encode_poe_chain(prev_frame: bytes, out: bytes) -> bytes:
    return (bytes([POE_CHAIN]) + struct.pack(">I", len(prev_frame)) + prev_frame
            + struct.pack(">I", len(out)) + out)


def peel_poe(frame: bytes) -> tuple[bytes, list[tuple[bytes, bytes]]]:
    """Unnest a proof-of-execution frame.

    Returns (req, [(wrapper frame bytes, claimed output)] in chain order,
    position 0 first).
    """
    levels: list[tuple[bytes, bytes]] = []
    current = frame
    while True:
        msg = decode_frame(current)
        payload = msg.payload
        kind = payload[0]
        (inner_len,) = struct.unpack_from(">I", payload, 1)
        inner = payload[5:5 + inner_len]
        (out_len,) = struct.unpack_from(">I", payload, 5 + inner_len)
        out = payload[9 + inner_len:9 + inner_len + out_len]
        levels.append((current, out))
        if kind == POE_BASE:
            return inner, list(reversed(levels))
        current = inner


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

    @property
    def is_head(self) -> bool:
        return self.position == 0

    @property
    def is_tail(self) -> bool:
        return self.position == len(self.order) - 1

    def _next_node(self) -> int:
        return self.order[self.position + 1]

    # -- head ------------------------------------------------------------------

    def head_handle(self, req: bytes) -> None:
        body = req[12:]   # strip client/req_id prefix for execution
        out = self.machine.apply(body)
        poe = self.endpoint.local_send(log_session(self.node_id),
                                       encode_poe_base(req, out))
        self.endpoint.auth_send(transport_session(self.node_id, self._next_node()),
                                encode_frame(poe))
        self._reply_client(req, out)

    # -- middle / tail ------------------------------------------------------------

    def validate_chain(self, poe_frame: bytes) -> tuple[bytes, bytes]:
        """Verify every upstream position; first inconsistency names the liar."""
        req, levels = peel_poe(poe_frame)
        body = req[12:]
        expected_out = self.machine.peek(body)
        for position, (wrapper_frame, out) in enumerate(levels):
            node = self.order[position]
            wrapper = decode_frame(wrapper_frame)
            try:
                self.endpoint.local_verify(log_session(node), wrapper)
            except (AuthFailure, CounterMismatch, KernelError) as exc:
                raise ChainValidationFailure(position, type(exc).__name__) from None
            if out != expected_out:
                raise ChainValidationFailure(
                    position, f"output mismatch at node {node}")
        return req, expected_out

    def middle_tail_handle(self, poe_frame: bytes) -> None:
        try:
            req, _ = self.validate_chain(poe_frame)
        except ChainValidationFailure as exc:
            self.flags.append(ChainFlag(self.node_id, exc.position, exc.detail))
            return
        body = req[12:]
        out = self.machine.apply(body)
        own = self.endpoint.local_send(log_session(self.node_id),
                                       encode_poe_chain(poe_frame, out))
        if not self.is_tail:
            self.endpoint.auth_send(
                transport_session(self.node_id, self._next_node()),
                encode_frame(own))
        self._reply_client(req, out)

    def _reply_client(self, req: bytes, out: bytes) -> None:
        payload = encode_reply_payload(req, out)
        self.outbox_replies.append(self.cluster.keyring.sign(self.node_id, payload))

    def step(self) -> bool:
        if self.is_head:
            return False
        upstream = self.order[self.position - 1]
        progressed = False
        for msg in self.endpoint.poll(transport_session(self.node_id, upstream)):
            progressed = True
            self.middle_tail_handle(msg.payload)
        return progressed


class LyingMiddle(ChainNode):
    """Byzantine middle node: attests a deviated output at one round."""

    def __init__(self, *args, lie_at_commit: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.lie_at_commit = lie_at_commit

    def middle_tail_handle(self, poe_frame: bytes) -> None:
        try:
            req, _ = self.validate_chain(poe_frame)
        except ChainValidationFailure as exc:
            self.flags.append(ChainFlag(self.node_id, exc.position, exc.detail))
            return
        body = req[12:]
        out = self.machine.apply(body)
        if self.machine.commit_index == self.lie_at_commit:
            out = struct.pack(">Q", self.machine.commit_index + 41) + b"bogus"
        own = self.endpoint.local_send(log_session(self.node_id),
                                       encode_poe_chain(poe_frame, out))
        if not self.is_tail:
            self.endpoint.auth_send(
                transport_session(self.node_id, self._next_node()),
                encode_frame(own))
        self._reply_client(req, out)


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
        while True:
            self.cluster.net.run_until_quiescent()
            progressed = False
            for device in self.order:
                if self.nodes[device].step():
                    progressed = True
            self._deliver_replies()
            if not progressed and not self.cluster.net.has_pending():
                break

    def _deliver_replies(self) -> None:
        for device in self.order:
            node = self.nodes[device]
            while node.outbox_replies:
                reply = node.outbox_replies.pop(0)
                for client in self.clients:
                    client.deliver(reply)

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
        return {d: node.machine.commit_history for d, node in self.nodes.items()}

    def all_flags(self) -> list[ChainFlag]:
        out = []
        for device in self.order:
            out.extend(self.nodes[device].flags)
        return out
