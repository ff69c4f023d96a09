"""Accountability protocol: tamper-evident logs audited by witnesses.

A root streams commands to child nodes; every attested message a node sends
or receives is logged in its tamper-evident log, which owns its log session,
and each node step is one attested log entry. The root logs one SENT entry
per command, the frame it sent each child packed in one batch, and one RECV
entry per step that polled answers, every frame it polled in one batch. A
child logs one EXEC entry per command, its result beside the frame that
carried the command; that entry, attested, doubles as its response. Every
node has a witness holding its peers' endpoints, so every log key and the key
of each transport session of the node. An audit walks new entries of the
node's own log session, checks the cumulative-digest chain and the
attestations the log rebuilds, and replays the entries against the node's
spec; the first deviation exposes the node. Both specs share one frame check,
`Witness._frame`: a logged SENT frame went from the node to a peer, a RECV
frame from a peer to the node, on that pair's session, with the next counter
of its direction and a valid tag. A child's spec is one EXEC per entry, of a
RECV frame of the root's next command with the reference result; the root's
(`RootWitness`) is a SENT entry of one frame per child in the children's
order, all with the same command, or a RECV entry of one or more frames.
Fault model: only network-observable misbehavior is detectable; detection is
the guarantee (bad actions may take effect before they are exposed).

A consistent audit is a checkpoint: `PrScenario.audit_all` then truncates
the node's log to the witness's audited sequence (`TamperEvidentLog.truncate`),
so a node keeps only the entries logged since its last consistent audit,
and the kept anchor is the digest the witness chains the next entry from.
An Exposed or ChainBreak verdict truncates nothing: the entries stay as
evidence. `Witness.audit` itself never writes to the log.

`PrScenario.drain` runs the shared `common.pump` over the root, then the
children in id order; there are no clients.
"""

from dataclasses import dataclass

from ..device import pack_batch, pack_pair, unpack_batch, unpack_pair
from ..errors import FrameError
from ..kernel import AttestedMessage
from ..wire import FRAME_OVERHEAD, decode_frame, encode_frame
from .common import ClusterNet, build_cluster, log_session, pump, transport_session
from .logchain import GENESIS_DIGEST, TamperEvidentLog, chain_digest

ENTRY_SENT = 0x53
ENTRY_RECV = 0x52
ENTRY_EXEC = 0x58

VERDICT_CONSISTENT = "Consistent"
VERDICT_EXPOSED = "Exposed"
VERDICT_CHAIN_BREAK = "ChainBreak"


def reference_execute(cmd: bytes) -> bytes:
    """The deterministic child specification all parties agree on."""
    return b"ack:" + cmd[::-1]


def encode_exec(result: bytes, frame: bytes) -> bytes:
    """ENTRY_EXEC ‖ result, a length-prefixed record ‖ the encoded frame that
    carried the command."""
    return bytes([ENTRY_EXEC]) + pack_pair(result, frame)


def decode_exec(ctx: bytes) -> tuple[bytes, bytes]:
    """The result and the command of an exec entry; FrameError unless ctx is
    one, its frame included."""
    if ctx[:1] != bytes([ENTRY_EXEC]):
        raise FrameError(f"entry kind {ctx[:1].hex() or 'missing'}, not exec")
    result, frame = unpack_pair(ctx[1:])
    return result, decode_frame(frame).payload


def recv_entry_len(frames: int, cmd_len: int) -> int:
    """The largest payload a round hands the kernel: the root's RECV entry of `frames`
    answers, each a polled frame of the frame of encode_exec(result, command frame)."""
    return 5 + frames * (4 + 3 * FRAME_OVERHEAD + 9 + 2 * cmd_len)


@dataclass
class Verdict:
    kind: str
    seq: int | None = None
    expected: bytes | None = None
    found: bytes | None = None

    @property
    def consistent(self) -> bool:
        return self.kind == VERDICT_CONSISTENT


class PrNode:
    """One participant: logs all attested traffic it sends and receives."""

    def __init__(self, node_id: int, cluster: ClusterNet):
        self.node_id = node_id
        self.cluster = cluster
        self.endpoint = cluster.endpoints[node_id]
        self.log = TamperEvidentLog(self.endpoint, log_session(node_id))
        self.deviated = False     # set once its answers or its log left its spec


class PrRoot(PrNode):
    """Streaming source: one command per round, fanned out to all children."""

    def __init__(self, node_id: int, cluster: ClusterNet, children: list[int]):
        super().__init__(node_id, cluster)
        self.children = children
        self.sessions = {c: transport_session(node_id, c) for c in children}
        self.responses: dict[int, list[bytes]] = {c: [] for c in children}

    def send(self, ctx: bytes) -> None:
        frames = [encode_frame(self.endpoint.auth_send(session, ctx))
                  for session in self.sessions.values()]
        self.log.attest(bytes([ENTRY_SENT]) + pack_batch(frames))

    def step(self) -> bool:
        frames = []
        for child, session in self.sessions.items():
            for msg in self.endpoint.poll(session):
                frames.append(encode_frame(msg))
                self.responses[child].append(msg.payload)
        if frames:
            self.log.attest(bytes([ENTRY_RECV]) + pack_batch(frames))
        return bool(frames)


class PrChild(PrNode):
    """Executes commands per the deterministic spec; response = attested log entry."""

    def __init__(self, node_id: int, cluster: ClusterNet, root_id: int):
        super().__init__(node_id, cluster)
        self.session = transport_session(node_id, root_id)

    def execute(self, cmd: bytes) -> bytes:
        return reference_execute(cmd)

    def step(self) -> bool:
        progressed = False
        for msg in self.endpoint.poll(self.session):
            progressed = True
            entry = self.log.attest(encode_exec(self.execute(msg.payload),
                                                encode_frame(msg)))
            self.endpoint.auth_send(self.session, encode_frame(entry))
        return progressed


class MutatingChild(PrChild):
    """Byzantine child: logs (and answers with) a deviated execution result."""

    def __init__(self, node_id: int, cluster: ClusterNet, root_id: int,
                 mutate_round: int):
        super().__init__(node_id, cluster, root_id)
        self.mutate_round = mutate_round
        self._round = 0

    def execute(self, cmd: bytes) -> bytes:
        self._round += 1
        result = reference_execute(cmd)
        if self._round == self.mutate_round:
            self.deviated = True
            return b"lie:" + result[4:]
        return result


def rewrite_log_entry(node: PrNode, seq: int, new_ctx: bytes) -> None:
    """Tamper with stored history (test fixture for the chain-break path)."""
    node.log.entry(seq).ctx = new_ctx
    node.deviated = True


class Witness:
    """Auditor co-located with a node; reads the log through a shared handle
    and replays the child spec."""

    def __init__(self, node: PrNode, peer_endpoints: dict):
        self.node = node
        self.peers = peer_endpoints     # peer id -> that peer's endpoint
        self.sessions = {transport_session(node.node_id, peer): peer
                         for peer in peer_endpoints}
        # A kernel sends and accepts counters in order: a frame carries the next.
        self._next_counter = {(device, session): 0
                              for session, peer in self.sessions.items()
                              for device in (node.node_id, peer)}
        self._log_key = (node.node_id, log_session(node.node_id))
        self.audited_seq = 0
        self._prev_digest = GENESIS_DIGEST

    def audit(self) -> Verdict:
        """Walk entries from the audited sequence number; replay the spec."""
        log = self.node.log
        if ((log.endpoint.device, log.session) != self._log_key    # elsewhere seqs start anew
                or self.audited_seq < log.first):    # dropped before it was audited
            return Verdict(VERDICT_CHAIN_BREAK, seq=self.audited_seq)
        # Every device holds every log key, so any peer verifies the node's.
        kernel = next(iter(self.peers.values())).kernel
        while self.audited_seq < len(log):
            entry = log.entry(self.audited_seq)
            if entry.cum_digest != chain_digest(self._prev_digest, entry.ctx,
                                                entry.seq):
                return Verdict(VERDICT_CHAIN_BREAK, seq=entry.seq)
            if not kernel.tag_matches(log.attestation(entry)):
                return Verdict(VERDICT_CHAIN_BREAK, seq=entry.seq)
            verdict = self._replay(entry.seq, entry.ctx)
            if verdict is not None:
                return verdict
            self._prev_digest = entry.cum_digest
            self.audited_seq += 1
        return Verdict(VERDICT_CONSISTENT, seq=self.audited_seq)

    def _frame(self, kind: int, data: bytes) -> AttestedMessage | None:
        """The frame `data` encodes if it went from the node to a peer (kind
        SENT) or from a peer to the node (RECV), on their session with the
        next counter of its direction and a valid tag; else None."""
        try:
            frame = decode_frame(data)
        except FrameError:
            return None
        peer = self.sessions.get(frame.session)
        direction = (frame.device, frame.session)
        if (frame.device != (self.node.node_id if kind == ENTRY_SENT else peer)
                or frame.counter != self._next_counter.get(direction)
                or not self.peers[peer].kernel.tag_matches(frame)):
            return None
        self._next_counter[direction] += 1
        return frame

    def _replay(self, seq: int, ctx: bytes) -> Verdict | None:
        """Replay one entry, which must be the EXEC of the root's next command;
        any other entry, one that does not decode included, exposes the node,
        which attested it."""
        if ctx[:1] != bytes([ENTRY_EXEC]):
            return Verdict(VERDICT_EXPOSED, seq=seq)
        try:
            found, data = unpack_pair(ctx[1:])
        except FrameError:
            return Verdict(VERDICT_EXPOSED, seq=seq)
        frame = self._frame(ENTRY_RECV, data)
        if frame is None:
            return Verdict(VERDICT_EXPOSED, seq=seq)
        expected = reference_execute(frame.payload)
        if found != expected:
            return Verdict(VERDICT_EXPOSED, seq=seq, expected=expected, found=found)
        return None


class RootWitness(Witness):
    """Witness of the streaming root, whose peers are its children in send
    order: its spec is fixed when it is built, never read from the root."""

    def _replay(self, seq: int, ctx: bytes) -> Verdict | None:
        try:
            batch = unpack_batch(ctx[1:])
        except FrameError:
            return Verdict(VERDICT_EXPOSED, seq=seq)
        if ctx[:1] == bytes([ENTRY_RECV]) and batch:
            if all(self._frame(ENTRY_RECV, data) is not None for data in batch):
                return None
            return Verdict(VERDICT_EXPOSED, seq=seq)
        if ctx[:1] != bytes([ENTRY_SENT]) or len(batch) != len(self.sessions):
            return Verdict(VERDICT_EXPOSED, seq=seq)    # the root executes nothing
        cmd = None
        for data, session in zip(batch, self.sessions):
            frame = self._frame(ENTRY_SENT, data)
            if frame is None or frame.session != session:
                return Verdict(VERDICT_EXPOSED, seq=seq)
            if cmd is not None and frame.payload != cmd:
                return Verdict(VERDICT_EXPOSED, seq=seq, expected=cmd,
                               found=frame.payload)
            cmd = frame.payload
        return None


@dataclass
class PrScenario:
    cluster: ClusterNet
    root: PrRoot
    children: dict[int, PrChild]
    witnesses: dict[int, Witness]

    @classmethod
    def build(cls, seed: int = 0, n_children: int = 2,
              child_cls_at: dict[int, type] | None = None,
              child_kwargs_at: dict[int, dict] | None = None,
              attest_delay_ns: int = 0) -> "PrScenario":
        if n_children < 1:
            raise ValueError(f"a PeerReview root needs a child, got {n_children}")
        root_id = 1
        child_ids = list(range(2, 2 + n_children))
        devices = [root_id] + child_ids
        cluster = build_cluster(devices, seed, attest_delay_ns=attest_delay_ns)
        root = PrRoot(root_id, cluster, child_ids)
        children: dict[int, PrChild] = {}
        for child_id in child_ids:
            child_cls = (child_cls_at or {}).get(child_id, PrChild)
            kwargs = (child_kwargs_at or {}).get(child_id, {})
            children[child_id] = child_cls(child_id, cluster, root_id, **kwargs)
        witnesses = {c: Witness(children[c], {root_id: cluster.endpoints[root_id]})
                     for c in child_ids}
        witnesses[root_id] = RootWitness(root, {c: cluster.endpoints[c] for c in child_ids})
        return cls(cluster=cluster, root=root, children=children,
                   witnesses=witnesses)

    def run_rounds(self, commands: list[bytes]) -> None:
        for cmd in commands:
            self.root.send(cmd)
            self.drain()

    def drain(self) -> None:
        """Pump the network, the root, then the children in id order."""
        pump(self.cluster.net,
             [self.root] + [self.children[c] for c in sorted(self.children)], [])

    def audit_all(self) -> dict[int, Verdict]:
        """Audit every node, the root first; a consistent one is checkpointed
        at what its witness audited."""
        verdicts = {}
        for node_id, witness in sorted(self.witnesses.items()):
            verdicts[node_id] = witness.audit()
            if verdicts[node_id].consistent:
                witness.node.log.truncate(witness.audited_seq)
        return verdicts
