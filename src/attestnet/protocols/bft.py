"""Leader-based replicated counter surviving Byzantine replicas at n = 2f+1.

A crash-tolerant counter run on the generic CFT-to-BFT wrapper
(`transform.Wrapper`). The leader executes a client increment, attests
(request ‖ output) once, and writes that one attested message to every
follower. Each follower passes it to the wrapper, which verifies the
leader's log stream in order (so a second, conflicting attestation for the
same round arrives with the wrong counter and is caught) and re-executes the
request on its copy of the sender's state, whose serialization is the
output the message carries. The follower applies each output in order, from
whichever peer delivers it first, acks the leader with its own attested
output, and forwards its attestation to the other replicas and the client.
Outputs are the only dedup, so a retried request is executed again, as the
leader does. The leader replies to the client after f validated acks,
counted once per follower id, or at once when f = 0; it keeps a request in
`pending_req` only until then. It takes only acks: a follower that sends it
a proof or a forward is flagged. A follower takes no ack: a peer that sends
it one is flagged.
Clients accept on f+1 identical replies referencing their own request bytes.

Byzantine attempts are *flagged*, not masked silently: every rejection names
the accused device and the defense that fired, and a flagged peer is read no
more. A Byzantine leader overrides only `attested_outputs`, the values it
attests in a round.

`BftCluster.drain` runs the shared `common.pump` over the replicas in id
order, handing every reply to every client.
"""

import struct
from dataclasses import dataclass, field

from ..transform import Flag, Wrapper
from ..wire import FRAME_OVERHEAD
from .common import (
    ClusterNet,
    ProtocolConfig,
    QuorumClient,
    Reply,
    build_cluster,
    digest,
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


_COUNTER = struct.Struct(">Q")


def counter_state(value: int) -> bytes:
    """The counter's serialized state: the output a proof and a reply carry."""
    return _COUNTER.pack(value)


def proof_len(n: int, body_len: int) -> int:
    """The largest payload a request hands the kernel: pack_pair(req, counter_state),
    24 bytes past the body, and with a follower (n > 1) its frame after a kind byte."""
    return 24 + body_len + (1 + FRAME_OVERHEAD if n > 1 else 0)


@dataclass
class BftReplica:
    node_id: int
    config: ProtocolConfig
    cluster: ClusterNet
    leader_id: int
    value: int = 0
    # Leader only: output -> (request, ids of the followers that acked it),
    # from the attestation until the reply goes out.
    pending_req: dict[int, tuple[bytes, set[int]]] = field(default_factory=dict)
    outbox_replies: list[Reply] = field(default_factory=list)
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
        # Attests this node's outputs and checks its peers'.
        self.wrapper = Wrapper(self.endpoint, self.peers, 0, counter_apply, counter_state)

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
        outputs = self.attested_outputs(output)
        frames = [self.wrapper.attest(req, out) for out in outputs]
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
        inner = self.wrapper.receive(sender, inner_frame)
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
        inner = self.wrapper.receive(sender, inner_frame)
        if inner is None:
            return
        req, output = inner
        if output != counter_apply(self.value, req):
            # An output already applied, or one ahead of this follower, is
            # dropped for good: only another peer's stream can fill the gap.
            return
        self.value = output
        own_frame = self.wrapper.attest(req, output)
        self.endpoint.auth_send(self.sessions[self.leader_id],
                                bytes([KIND_ACK]) + own_frame)
        for peer, session in self.sessions.items():
            if peer == self.leader_id:
                continue
            self.endpoint.auth_send(session, bytes([KIND_FORWARD]) + own_frame)
        self._reply_client(req, output)

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
                if not self.wrapper.reads(msg.device):
                    continue    # read a flagged peer no more, as a ChainNode does
                kind = msg.payload[0] if msg.payload else None
                inner_frame = msg.payload[1:]
                if kind == KIND_ACK:
                    if self.node_id == self.leader_id:
                        self._leader_on_ack(msg.device, inner_frame)
                    else:
                        # Only the leader collects acks.
                        self.wrapper.accuse(msg.device, "ack-to-follower")
                elif kind != KIND_PROOF and kind != KIND_FORWARD:
                    # A missing or unknown kind byte: the sender's MAC covers it.
                    self.wrapper.accuse(msg.device, "malformed-proof")
                elif self.node_id == self.leader_id:
                    # The leader executes first: a proof could only repeat one.
                    self.wrapper.accuse(msg.device, "proof-to-leader")
                else:
                    self._on_proof(msg.device, inner_frame)
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
            out.extend(self.replicas[node_id].wrapper.flags)
        return out

    def correct_values(self) -> dict[int, int]:
        return {node_id: r.value for node_id, r in self.replicas.items()}
