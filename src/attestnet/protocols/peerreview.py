"""Accountability protocol: tamper-evident logs audited by witnesses.

A root streams commands to child nodes; every sent and received attested
message is appended to the owner's tamper-evident log, and a child also logs
its execution result, whose attested entry doubles as its response. A
witness holds a reference implementation of the deterministic child spec
plus (audited sequence, expected state); an audit walks new entries, checks
the cumulative-digest chain and the attestation tags, replays the commands
through the reference implementation, and reports the first deviation. Fault
model: only network-observable misbehavior is detectable, and detection is
the guarantee (bad actions may take effect before they are exposed).

`PrScenario.drain` runs the shared `common.pump` over the root, then the
children in id order; there are no clients.
"""

from dataclasses import dataclass, field

from ..device import pack_pair, unpack_pair
from ..errors import FrameError
from ..kernel import AttestedMessage
from ..wire import decode_frame, encode_frame
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


def encode_exec(result: bytes, cmd: bytes) -> bytes:
    """ENTRY_EXEC ‖ result ‖ cmd, each of the two a length-prefixed record."""
    return bytes([ENTRY_EXEC]) + pack_pair(result, pack_pair(cmd, b""))


def decode_exec(ctx: bytes) -> tuple[bytes, bytes]:
    """Inverse of encode_exec, kind byte unchecked; FrameError unless exactly
    the two records follow it."""
    result, rest = unpack_pair(ctx[1:])
    cmd, tail = unpack_pair(rest)
    if tail:
        raise FrameError(f"{len(tail)} bytes after the exec entry's records")
    return result, cmd


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
        self.log = TamperEvidentLog()

    def _log(self, ctx: bytes) -> AttestedMessage:
        """Attest ctx on this node's log session and append it to the log."""
        entry_msg = self.endpoint.local_send(log_session(self.node_id), ctx)
        self.log.append(seq=entry_msg.counter, ctx=ctx, tag=entry_msg.tag)
        return entry_msg


class PrRoot(PrNode):
    """Streaming source: one command per round, fanned out to all children."""

    def __init__(self, node_id: int, cluster: ClusterNet, children: list[int]):
        super().__init__(node_id, cluster)
        self.children = children
        self.sessions = {c: transport_session(node_id, c) for c in children}
        self.responses: dict[int, list[bytes]] = {c: [] for c in children}

    def send(self, ctx: bytes) -> None:
        for session in self.sessions.values():
            sent = self.endpoint.auth_send(session, ctx)
            self._log(bytes([ENTRY_SENT]) + encode_frame(sent))

    def step(self) -> bool:
        progressed = False
        for child, session in self.sessions.items():
            for msg in self.endpoint.poll(session):
                progressed = True
                self._log(bytes([ENTRY_RECV]) + encode_frame(msg))
                self.responses[child].append(msg.payload)
        return progressed


class PrChild(PrNode):
    """Executes commands per the deterministic spec; response = attested log entry."""

    def __init__(self, node_id: int, cluster: ClusterNet, root_id: int):
        super().__init__(node_id, cluster)
        self.root_id = root_id
        self.session = transport_session(node_id, root_id)

    def execute(self, cmd: bytes) -> bytes:
        return reference_execute(cmd)

    def step(self) -> bool:
        progressed = False
        for msg in self.endpoint.poll(self.session):
            progressed = True
            self._log(bytes([ENTRY_RECV]) + encode_frame(msg))
            result = self.execute(msg.payload)
            response_entry = self._log(encode_exec(result, msg.payload))
            self.endpoint.auth_send(self.session, encode_frame(response_entry))
        return progressed


class MutatingChild(PrChild):
    """Byzantine child: logs (and answers with) a deviated execution result."""

    def __init__(self, node_id: int, cluster: ClusterNet, root_id: int,
                 mutate_round: int):
        super().__init__(node_id, cluster, root_id)
        self.mutate_round = mutate_round
        self._round = 0
        self.deviated = False     # set once it returned a mutated result

    def execute(self, cmd: bytes) -> bytes:
        self._round += 1
        result = reference_execute(cmd)
        if self._round == self.mutate_round:
            self.deviated = True
            return b"lie:" + result[4:]
        return result


def rewrite_log_entry(node: PrNode, index: int, new_ctx: bytes) -> None:
    """Tamper with stored history (test fixture for the chain-break path)."""
    entry = node.log.entries[index]
    node.log.entries[index] = type(entry)(seq=entry.seq, ctx=new_ctx,
                                          tag=entry.tag,
                                          cum_digest=entry.cum_digest)


class Witness:
    """Auditor co-located with a node; reads the log through a shared handle."""

    def __init__(self, node: PrNode, verifier_endpoint):
        self.node = node
        # Read-only view plus a verification kernel holding the log key.
        self.verifier = verifier_endpoint
        self.audited_seq = 0
        self.expected_state: dict[str, int] = {"processed": 0}
        self._prev_digest = GENESIS_DIGEST
        self._pending_cmds: list[bytes] = []

    def audit(self) -> Verdict:
        """Walk entries from the audited sequence number; replay the spec."""
        log = self.node.log
        while self.audited_seq < len(log):
            entry = log.get(self.audited_seq)
            if entry.cum_digest != chain_digest(self._prev_digest, entry.ctx,
                                                entry.seq):
                return Verdict(VERDICT_CHAIN_BREAK, seq=entry.seq)
            probe = AttestedMessage(tag=entry.tag, payload=entry.ctx,
                                    device=self.node.node_id,
                                    session=log_session(self.node.node_id),
                                    counter=entry.seq)
            if not self.verifier.kernel.tag_matches(probe):
                return Verdict(VERDICT_CHAIN_BREAK, seq=entry.seq)
            verdict = self._replay(entry.seq, entry.ctx)
            if verdict is not None:
                return verdict
            self._prev_digest = entry.cum_digest
            self.audited_seq += 1
        return Verdict(VERDICT_CONSISTENT, seq=self.audited_seq)

    def _replay(self, seq: int, ctx: bytes) -> Verdict | None:
        """Replay one entry. An entry that does not decode exposes the node,
        which attested it."""
        if not ctx:
            return Verdict(VERDICT_EXPOSED, seq=seq)    # not even a kind byte
        try:
            if ctx[0] == ENTRY_RECV:
                self._pending_cmds.append(decode_frame(ctx[1:]).payload)
                return None
            if ctx[0] != ENTRY_EXEC:
                return None     # SENT entries replay trivially for the streaming root
            found, cmd = decode_exec(ctx)
        except FrameError:
            return Verdict(VERDICT_EXPOSED, seq=seq)
        if not self._pending_cmds or self._pending_cmds[0] != cmd:
            return Verdict(VERDICT_EXPOSED, seq=seq,
                           expected=self._pending_cmds[0] if self._pending_cmds else b"",
                           found=cmd)
        self._pending_cmds.pop(0)
        expected = reference_execute(cmd)
        if found != expected:
            return Verdict(VERDICT_EXPOSED, seq=seq, expected=expected, found=found)
        self.expected_state["processed"] += 1
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
              child_kwargs_at: dict[int, dict] | None = None) -> "PrScenario":
        root_id = 1
        child_ids = list(range(2, 2 + n_children))
        devices = [root_id] + child_ids
        cluster = build_cluster(devices, seed)
        root = PrRoot(root_id, cluster, child_ids)
        children: dict[int, PrChild] = {}
        for child_id in child_ids:
            child_cls = (child_cls_at or {}).get(child_id, PrChild)
            kwargs = (child_kwargs_at or {}).get(child_id, {})
            children[child_id] = child_cls(child_id, cluster, root_id, **kwargs)
        witnesses = {child_id: Witness(children[child_id],
                                       cluster.endpoints[root_id])
                     for child_id in child_ids}
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
        return {child_id: witness.audit()
                for child_id, witness in sorted(self.witnesses.items())}
