"""Leader-based replicated counter surviving Byzantine replicas at n = 2f+1.

The leader executes a client increment, attests (request ‖ output) once with
local_send, and writes that one attested message to every follower. Each
follower verifies the leader's log stream in order (so a second, conflicting
attestation for the same round arrives with the wrong counter and is caught),
re-executes the request against its shadow of the leader's state machine,
applies at most once and in order, acks the leader with its own attested
output, and forwards its attestation to the other replicas and the client.
The leader replies to the client after f validated acks, counted once per
follower id. Clients accept on f+1 identical replies referencing their own
request bytes.

Byzantine attempts are *flagged*, not masked silently: every rejection names
the accused device and the defense that fired. A Byzantine leader overrides
only `attested_outputs`, the values it attests in a round.

`BftCluster.drain` runs the shared `common.pump` over the replicas in id
order, handing every reply to every client.
"""

import struct
from dataclasses import dataclass, field

from ..errors import AuthFailure, CounterMismatch, KernelError
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

KIND_PROOF = 0x50     # leader proof-of-execution carrier
KIND_ACK = 0x41       # follower ack to leader
KIND_FORWARD = 0x46   # follower-to-follower forward


def encode_inner(req: bytes, output: int) -> bytes:
    return struct.pack(">I", len(req)) + req + struct.pack(">Q", output)


def decode_inner(payload: bytes) -> tuple[bytes, int]:
    (req_len,) = struct.unpack_from(">I", payload)
    req = payload[4:4 + req_len]
    (output,) = struct.unpack_from(">Q", payload, 4 + req_len)
    return req, output


@dataclass
class Flag:
    accuser: int
    accused: int
    reason: str
    detail: str = ""


@dataclass
class BftReplica:
    node_id: int
    config: ProtocolConfig
    cluster: ClusterNet
    leader_id: int
    value: int = 0
    shadows: dict[int, int] = field(default_factory=dict)
    applied: set[bytes] = field(default_factory=set)
    pending_req: dict[int, bytes] = field(default_factory=dict)
    acks: dict[int, set[int]] = field(default_factory=dict)
    replied: set[int] = field(default_factory=set)
    flags: list[Flag] = field(default_factory=list)
    outbox_replies: list[SignedReply] = field(default_factory=list)
    crashed: bool = False

    def __post_init__(self):
        self.endpoint = self.cluster.endpoints[self.node_id]
        self.peers = [d for d in self.cluster.endpoints if d != self.node_id]
        # Transport session to each peer, in peer order.
        self.sessions = {peer: transport_session(self.node_id, peer)
                         for peer in self.peers}
        for peer in self.peers:
            self.shadows[peer] = 0

    # -- leader ----------------------------------------------------------------

    def attested_outputs(self, output: int) -> list[int]:
        """The outputs the leader attests this round, one attestation each;
        the i-th follower is sent entry i modulo their count. A correct
        leader attests its output once."""
        return [output]

    def leader_handle(self, req: bytes) -> None:
        """Execute, attest, and write the attested proof to all followers."""
        if self.crashed:
            return
        output = self.value + 1
        self.value = output
        self.applied.add(req)
        self.pending_req[output] = req
        log = log_session(self.node_id)
        frames = [encode_frame(self.endpoint.local_send(log, encode_inner(req, out)))
                  for out in self.attested_outputs(output)]
        for i, session in enumerate(self.sessions.values()):
            self.endpoint.auth_send(session,
                                    bytes([KIND_PROOF]) + frames[i % len(frames)])

    def _leader_on_ack(self, sender: int, inner_frame: bytes) -> None:
        inner = self._verified_inner(sender, inner_frame)
        if inner is None:
            return
        req, output = decode_inner(inner.payload)
        if not self._validate_peer(sender, output):
            return
        acked = self.acks.setdefault(output, set())
        acked.add(sender)      # counted once per follower id
        if len(acked) >= self.config.f and output not in self.replied:
            if self.pending_req.get(output) == req:
                self.replied.add(output)
                self._reply_client(req, output)

    # -- follower ----------------------------------------------------------------

    def _on_proof(self, sender: int, inner_frame: bytes) -> None:
        inner = self._verified_inner(sender, inner_frame)
        if inner is None:
            return
        req, output = decode_inner(inner.payload)
        if not self._validate_peer(sender, output):
            return
        if req in self.applied:
            return             # forwarded or duplicate of an applied request
        if output != self.value + 1:
            return             # not yet in order for us; FIFO will close the gap
        self.value = output
        self.applied.add(req)
        own = self.endpoint.local_send(log_session(self.node_id),
                                       encode_inner(req, output))
        own_frame = encode_frame(own)
        if self.leader_id != self.node_id:
            self.endpoint.auth_send(self.sessions[self.leader_id],
                                    bytes([KIND_ACK]) + own_frame)
        for peer, session in self.sessions.items():
            if peer == self.leader_id:
                continue
            self.endpoint.auth_send(session, bytes([KIND_FORWARD]) + own_frame)
        self._reply_client(req, output)

    # -- shared validation ---------------------------------------------------------

    def _verified_inner(self, sender: int, inner_frame: bytes):
        """Kernel-verify a peer's locally attested message, in stream order."""
        try:
            inner = decode_frame(inner_frame)
        except Exception:
            self.flags.append(Flag(self.node_id, sender, "malformed-proof"))
            return None
        try:
            self.endpoint.local_verify(log_session(sender), inner)
        except CounterMismatch as exc:
            self.flags.append(Flag(self.node_id, sender, "equivocation",
                                   detail=str(exc)))
            return None
        except AuthFailure:
            self.flags.append(Flag(self.node_id, sender, "forged-attestation"))
            return None
        except KernelError as exc:
            self.flags.append(Flag(self.node_id, sender, type(exc).__name__))
            return None
        return inner

    def _validate_peer(self, sender: int, output: int) -> bool:
        """Re-execute the deterministic spec against the shadow of the sender."""
        expected = self.shadows[sender] + 1
        if output != expected:
            self.flags.append(Flag(self.node_id, sender, "state-mismatch",
                                   detail=f"expected {expected}, got {output}"))
            return False
        self.shadows[sender] = expected
        return True

    def _reply_client(self, req: bytes, output: int) -> None:
        payload = encode_reply_payload(req, struct.pack(">Q", output))
        self.outbox_replies.append(
            self.cluster.keyring.sign(self.node_id, payload))

    # -- event pump -------------------------------------------------------------

    def step(self) -> bool:
        if self.crashed:
            return False
        progressed = False
        for session in self.sessions.values():
            for msg in self.endpoint.poll(session):
                progressed = True
                kind, inner_frame = msg.payload[0], msg.payload[1:]
                if kind == KIND_PROOF:
                    self._on_proof(msg.device, inner_frame)
                elif kind == KIND_FORWARD:
                    self._on_proof(msg.device, inner_frame)
                elif kind == KIND_ACK and self.node_id == self.leader_id:
                    self._leader_on_ack(msg.device, inner_frame)
        return progressed


class EquivocatingLeader(BftReplica):
    """Byzantine leader: two conflicting attestations for one round.

    A single attested message cannot equivocate (unicast-multicast), so the
    attack needs a second local_send, which necessarily consumes the next
    counter; at least one correct follower sees the gap.
    """

    def __init__(self, *args, equivocate_round: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.equivocate_round = equivocate_round

    def attested_outputs(self, output: int) -> list[int]:
        if output == self.equivocate_round:
            return [output, output + 1]
        return [output]


class WrongValueLeader(BftReplica):
    """Byzantine leader: single attestation but a deviated execution result."""

    def __init__(self, *args, lie_round: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.lie_round = lie_round

    def attested_outputs(self, output: int) -> list[int]:
        if output == self.lie_round:
            return [output + 7]
        return [output]


class BftCluster:
    """Harness: replicas plus clients over one deterministic network."""

    def __init__(self, cluster: ClusterNet, config: ProtocolConfig,
                 leader_id: int, replicas: dict[int, BftReplica],
                 clients: list[QuorumClient]):
        self.cluster = cluster
        self.config = config
        self.leader_id = leader_id
        self.replicas = replicas
        self.clients = clients

    @classmethod
    def build(cls, n: int = 3, f: int = 1, seed: int = 0,
              leader_cls=BftReplica, leader_kwargs: dict | None = None,
              clients: int = 1, attest_delay_ns: int = 0,
              net=None) -> "BftCluster":
        if n != 2 * f + 1:
            raise ValueError("counter replication requires n = 2f+1")
        devices = list(range(1, n + 1))
        cluster = build_cluster(devices, seed, attest_delay_ns=attest_delay_ns,
                                net=net)
        config = ProtocolConfig(n=n, f=f)
        replicas: dict[int, BftReplica] = {}
        for device in devices:
            if device == 1:
                kwargs = leader_kwargs or {}
                replicas[device] = leader_cls(device, config, cluster, 1, **kwargs)
            else:
                replicas[device] = BftReplica(device, config, cluster, 1)
        client_objs = [QuorumClient(100 + i, cluster.keyring, config.quorum)
                       for i in range(clients)]
        return cls(cluster, config, 1, replicas, client_objs)

    def drain(self) -> None:
        """Pump the network, replicas in id order, and clients until quiescent."""
        pump(self.cluster.net, [self.replicas[i] for i in sorted(self.replicas)],
             self.clients)

    def run_request(self, client_index: int, req_id: int) -> bytes:
        client = self.clients[client_index]
        req = client.issue(req_id)
        # every client observes replies; only the issuer counts them
        self.replicas[self.leader_id].leader_handle(req)
        self.drain()
        return req

    def all_flags(self) -> list[Flag]:
        out = []
        for node_id in sorted(self.replicas):
            out.extend(self.replicas[node_id].flags)
        return out

    def correct_values(self) -> dict[int, int]:
        return {node_id: r.value for node_id, r in self.replicas.items()}
