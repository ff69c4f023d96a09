"""Leader-based replicated counter surviving Byzantine replicas at n = 2f+1.

The paper's CFT-to-BFT recipe applied to a counter. The leader executes a
client increment, attests (request ‖ output) once with local_send, and writes
that one attested message to every follower. Each follower verifies the
leader's log stream in order (so a second, conflicting attestation for the
same round arrives with the wrong counter and is caught), re-executes the
request on its `transform.StateSimulator` of the sender, whose serialized
state is the output the message carries, applies at most once and in order,
acks the leader with its own attested output, and forwards its attestation
to the other replicas and the client. The leader replies to the client after
f validated acks, counted once per follower id, or at once when f = 0; it
keeps a request in `pending_req` only until then.
Clients accept on f+1 identical replies referencing their own request bytes.

Byzantine attempts are *flagged*, not masked silently: every rejection names
the accused device and the defense that fired. A Byzantine leader overrides
only `attested_outputs`, the values it attests in a round.

`BftCluster.drain` runs the shared `common.pump` over the replicas in id
order, handing every reply to every client.
"""

import struct
from dataclasses import dataclass, field

from ..device import pack_pair, unpack_pair
from ..errors import AuthFailure, CounterMismatch, FrameError, KernelError
from ..transform import StateSimulator, probe_determinism
from ..wire import decode_frame, encode_frame
from .common import (
    ClusterNet,
    ProtocolConfig,
    QuorumClient,
    SignedReply,
    build_cluster,
    digest,
    log_session,
    pump,
    reply_statement,
    transport_session,
)

KIND_PROOF = 0x50     # leader proof-of-execution carrier
KIND_ACK = 0x41       # follower ack to leader
KIND_FORWARD = 0x46   # follower-to-follower forward


def counter_apply(value: int, req: bytes) -> int:
    """The replicated machine: every request increments the counter."""
    return value + 1


def counter_state(value: int) -> bytes:
    """The counter's serialized state: the output a proof and a reply carry."""
    return struct.pack(">Q", value)


def encode_inner(req: bytes, output: int) -> bytes:
    return pack_pair(req, counter_state(output))


def decode_inner(payload: bytes) -> tuple[bytes, int]:
    """Inverse of encode_inner; FrameError unless 8 state bytes follow the request."""
    req, state = unpack_pair(payload)
    if len(state) != 8:
        raise FrameError(f"inner payload ends in {len(state)} state bytes, not 8")
    return req, int.from_bytes(state, "big")


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
    applied: set[bytes] = field(default_factory=set)
    # Leader only: output -> (request, ids of the followers that acked it),
    # from the attestation until the reply goes out.
    pending_req: dict[int, tuple[bytes, set[int]]] = field(default_factory=dict)
    flags: list[Flag] = field(default_factory=list)
    outbox_replies: list[SignedReply] = field(default_factory=list)
    crashed: bool = False
    # Set once this node, as leader, sent a follower an attestation of any
    # other output than the one it executed: a deviation to detect.
    deviated: bool = False

    def __post_init__(self):
        self.endpoint = self.cluster.endpoints[self.node_id]
        self.peers = [d for d in self.cluster.endpoints if d != self.node_id]
        # Transport session to each peer, in peer order.
        self.sessions = {peer: transport_session(self.node_id, peer)
                         for peer in self.peers}
        # Each peer's machine, re-executed; BftCluster.build probed it.
        self.simulators = {peer: StateSimulator(0, counter_apply, counter_state)
                           for peer in self.peers}

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
        output = counter_apply(self.value, req)
        self.value = output
        self.applied.add(req)
        log = log_session(self.node_id)
        outputs = self.attested_outputs(output)
        frames = [encode_frame(self.endpoint.local_send(log, encode_inner(req, out)))
                  for out in outputs]
        for i, session in enumerate(self.sessions.values()):
            self.endpoint.auth_send(session,
                                    bytes([KIND_PROOF]) + frames[i % len(frames)])
        if outputs != [output] and self.sessions:
            self.deviated = True
        if self.config.f == 0:
            # No follower, so no ack to wait for: the leader's reply is the quorum.
            self._reply_client(req, output)
        else:
            self.pending_req[output] = (req, set())

    def _leader_on_ack(self, sender: int, inner_frame: bytes) -> None:
        inner = self._checked_inner(sender, inner_frame)
        if inner is None:
            return
        req, output = inner
        pending = self.pending_req.get(output)
        if pending is None:
            return             # already answered, or never attested
        leader_req, acked = pending
        acked.add(sender)      # counted once per follower id
        if len(acked) >= self.config.f and leader_req == req:
            del self.pending_req[output]
            self._reply_client(req, output)

    # -- follower ----------------------------------------------------------------

    def _on_proof(self, sender: int, inner_frame: bytes) -> None:
        inner = self._checked_inner(sender, inner_frame)
        if inner is None:
            return
        req, output = inner
        if req in self.applied:
            return             # forwarded or duplicate of an applied request
        if output != counter_apply(self.value, req):
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

    def _checked_inner(self, sender: int, inner_frame: bytes) -> tuple[bytes, int] | None:
        """The follower check: kernel-verify a peer's locally attested
        message, in stream order, decode it to (request, output), and
        re-execute it; None once the sender is flagged. The message is
        verified before it is decoded, so an attested payload that does not
        decode still uses up its counter."""
        try:
            inner = decode_frame(inner_frame)
            self.endpoint.local_verify(log_session(sender), inner)
            req, output = decode_inner(inner.payload)
        except FrameError:
            flag = Flag(self.node_id, sender, "malformed-proof")
        except CounterMismatch as exc:
            flag = Flag(self.node_id, sender, "equivocation", detail=str(exc))
        except AuthFailure:
            flag = Flag(self.node_id, sender, "forged-attestation")
        except KernelError as exc:
            flag = Flag(self.node_id, sender, type(exc).__name__)
        else:
            return (req, output) if self._re_execute(sender, req, output) else None
        self.flags.append(flag)
        return None

    def _re_execute(self, sender: int, req: bytes, output: int) -> bool:
        """Re-execute the request on the sender's simulated machine; commit
        the step only if the sender attested the state it reaches."""
        simulator = self.simulators[sender]
        expected, _ = simulator.expected_after(req)
        if output != expected:
            self.flags.append(Flag(self.node_id, sender, "state-mismatch",
                                   detail=f"expected {expected}, got {output}"))
            return False
        simulator.commit(expected)
        return True

    def _reply_client(self, req: bytes, output: int) -> None:
        value = counter_state(output)
        statement = reply_statement(digest(req), digest(value))
        self.outbox_replies.append(
            self.cluster.keyring.sign(self.node_id, req, value, statement))

    # -- event pump -------------------------------------------------------------

    def step(self) -> bool:
        if self.crashed:
            return False
        progressed = False
        for session in self.sessions.values():
            for msg in self.endpoint.poll(session):
                progressed = True
                kind = msg.payload[0] if msg.payload else None
                inner_frame = msg.payload[1:]
                if kind == KIND_PROOF or kind == KIND_FORWARD:
                    self._on_proof(msg.device, inner_frame)
                elif kind == KIND_ACK:
                    if self.node_id == self.leader_id:
                        self._leader_on_ack(msg.device, inner_frame)
                else:
                    # A missing or unknown kind byte: the sender's MAC covers it.
                    self.flags.append(Flag(self.node_id, msg.device, "malformed-proof"))
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
        probe_determinism(0, counter_apply, counter_state, [b"probe-1", b"probe-2"])
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

    def run_request(self, client_index: int, req_id: int, body: bytes = b"") -> bytes:
        """One round: the client issues a request, the leader handles it, and
        the cluster drains. Every client observes the replies; only the
        issuer accepts them."""
        req = self.clients[client_index].issue(req_id, body)
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
