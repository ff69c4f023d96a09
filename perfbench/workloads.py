"""The benchmark's three workloads, each driven through a protocol's public API.

Every workload runs in episodes. An episode builds a fresh cluster (timed as
set-up), runs a fixed amount of work through it in simulated time, and then
checks every result against an independent expectation. The inputs come from
the seed alone, so every episode of a run replays the same inputs and the
simulated-time results are identical from one episode to the next.

Injected costs, all workloads: the trusted-NIC preset charges 23 us per
attest or verify, and the wire adds 1.5 us + 2 ns per byte to each frame.
"""

import random
import struct
import time
from dataclasses import dataclass

from attestnet.device import SimClock, pack_batch
from attestnet.protocols.bft import BftCluster, BftReplica, WrongValueLeader
from attestnet.protocols.chain import (
    OP_PUT,
    ChainCluster,
    LyingMiddle,
    decode_op,
    encode_op,
)
from attestnet.protocols.common import QuorumClient, transport_session
from attestnet.protocols.peerreview import PrScenario, decode_exec, reference_execute
from attestnet.simnet import ACTION_KINDS, FaultAction, FaultSchedule, Network
from attestnet.wire import decode_frame

TNIC_DELAY_NS = 23_000
WIRE_BASE_NS = 1_500
WIRE_PER_BYTE_NS = 2

BFT_CLIENTS = 4
BFT_RECORD_BYTES = 64
CR_BATCH = 16
CR_RECORD_BYTES = 256
CR_KEYS = 128
PR_CHILDREN = 3
PR_CMD_BYTES = 64
PR_AUDIT_EVERY = 64
PR_FRAMES_PER_ACTION = 20


@dataclass
class Episode:
    """One episode's timings and verdicts.

    `system` is the cluster it ran on, until the runner reads the counts it
    needs (`state`) and drops it.
    """

    setup_s: float
    run_s: float
    records: int
    attempted: int
    failed: int
    host_lat_us: list[float]
    sim_lat_us: list[float]
    sim_elapsed_ns: int
    system: object
    state: dict | None = None


class ClosedLoopClient(QuorumClient):
    """A quorum client with one request outstanding at a time.

    It issues its next request the moment the current one is accepted, so
    the episode runs inside one drain of the protocol's event pump.
    """

    def __init__(self, client_id, keyring, quorum, bodies, submit, clock, issued):
        super().__init__(client_id, keyring, quorum)
        self._bodies = iter(bodies)
        self._submit = submit
        self._clock = clock
        self._issued = issued       # shared log of (req, body) in issue order
        self._next_id = 0
        self.outstanding = None     # (req, host ns, sim ns) at issue
        self.host_lat_us: list[float] = []
        self.sim_lat_us: list[float] = []

    def issue_next(self) -> None:
        body = next(self._bodies, None)
        if body is None:
            self.outstanding = None
            return
        req = self.issue(self._next_id, body)
        self._next_id += 1
        self._issued.append((req, body))
        self.outstanding = (req, time.perf_counter_ns(), self._clock.now_ns)
        self._submit(req)

    def deliver(self, reply) -> None:
        super().deliver(reply)
        if self.outstanding is not None and self.outstanding[0] in self.accepted:
            req, host_ns, sim_ns = self.outstanding
            self.host_lat_us.append((time.perf_counter_ns() - host_ns) / 1e3)
            self.sim_lat_us.append((self._clock.now_ns - sim_ns) / 1e3)
            self.issue_next()


def _wire(net: Network) -> None:
    net.base_latency_ns = WIRE_BASE_NS
    net.per_byte_ns = WIRE_PER_BYTE_NS


def _run_clients(system, clients, clock) -> tuple[float, int]:
    """Start every client, drain once; returns (host seconds, sim ns)."""
    sim0 = clock.now_ns
    t0 = time.perf_counter()
    for client in clients:
        client.issue_next()
    system.drain()
    return time.perf_counter() - t0, clock.now_ns - sim0


def _quorum_agrees(client: QuorumClient, req: bytes, expected: bytes) -> bool:
    votes = client.replies.get(req, {}).values()
    return (client.accepted_value(req) == expected
            and sum(v == expected for v in votes) >= client.quorum)


def _episode_ok(flags, net: Network) -> bool:
    """A flag raised in an honest run, or a frame out of retries, is a failure
    no single request shows; the caller then counts every request failed."""
    return not flags and not net.exhausted


# -- bft_clients4 -----------------------------------------------------------------

def bft_inputs(seed: int, size: int) -> list[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(BFT_RECORD_BYTES) for _ in range(size)]


def bft_clients4(seed: int, bodies: list[bytes], byzantine: bool = False) -> Episode:
    """BFT counter, n=3, f=1, 4 closed-loop clients, batch 1 x 64 B, clean wire."""
    t0 = time.perf_counter()
    net = Network(clock=SimClock())
    _wire(net)
    leader_kwargs = {"lie_round": len(bodies) // 2 + 1} if byzantine else None
    cluster = BftCluster.build(n=3, f=1, seed=seed, clients=0,
                               attest_delay_ns=TNIC_DELAY_NS, net=net,
                               leader_cls=WrongValueLeader if byzantine else BftReplica,
                               leader_kwargs=leader_kwargs)
    leader = cluster.replicas[cluster.leader_id]
    issued: list[tuple[bytes, bytes]] = []
    cluster.clients = [
        ClosedLoopClient(100 + i, cluster.cluster.keyring, cluster.config.quorum,
                         bodies[i::BFT_CLIENTS], leader.leader_handle, net.clock,
                         issued)
        for i in range(BFT_CLIENTS)]
    setup_s = time.perf_counter() - t0

    run_s, sim_ns = _run_clients(cluster, cluster.clients, net.clock)

    # The leader executes requests in issue order: the k-th is counter k.
    owner = {c.client_id: c for c in cluster.clients}
    failed = 0
    for k, (req, _) in enumerate(issued, start=1):
        client = owner[struct.unpack_from(">I", req)[0]]
        if not _quorum_agrees(client, req, struct.pack(">Q", k)):
            failed += 1
    attempted = len(bodies)
    failed += attempted - len(issued)       # requests a stalled client never sent
    if not _episode_ok(cluster.all_flags(), net):
        failed = attempted
    return Episode(setup_s, run_s, attempted, attempted, failed,
                   [v for c in cluster.clients for v in c.host_lat_us],
                   [v for c in cluster.clients for v in c.sim_lat_us],
                   sim_ns, cluster)


# -- cr_n5_batch16 ------------------------------------------------------------------

def cr_inputs(seed: int, size: int) -> list[bytes]:
    rng = random.Random(seed)
    return [encode_op(OP_PUT, b"k%08d" % (i % CR_KEYS),
                      pack_batch([rng.randbytes(CR_RECORD_BYTES)
                                  for _ in range(CR_BATCH)]))
            for i in range(size)]


def cr_n5_batch16(seed: int, bodies: list[bytes], byzantine: bool = False) -> Episode:
    """Chain replication, n=5, f=2, 1 closed-loop client, puts of 16 x 256 B."""
    t0 = time.perf_counter()
    byz_cls = {2: LyingMiddle} if byzantine else None
    byz_kwargs = {2: {"lie_at_commit": len(bodies) // 2 + 1}} if byzantine else None
    cluster = ChainCluster.build(n=5, f=2, seed=seed, clients=0,
                                 attest_delay_ns=TNIC_DELAY_NS,
                                 node_cls_at=byz_cls, node_kwargs_at=byz_kwargs)
    net = cluster.cluster.net
    _wire(net)
    head = cluster.nodes[cluster.order[0]]
    issued: list[tuple[bytes, bytes]] = []
    client = ClosedLoopClient(200, cluster.cluster.keyring, cluster.config.quorum,
                              bodies, head.head_handle, net.clock, issued)
    cluster.clients = [client]
    setup_s = time.perf_counter() - t0

    run_s, sim_ns = _run_clients(cluster, cluster.clients, net.clock)

    # A put's output is the commit index followed by the value written.
    failed = 0
    for index, (req, body) in enumerate(issued, start=1):
        _, _, value = decode_op(body)
        if not _quorum_agrees(client, req, struct.pack(">Q", index) + value):
            failed += 1
    attempted = len(bodies)
    failed += attempted - len(issued)
    if not _episode_ok(cluster.all_flags(), net):
        failed = attempted
    return Episode(setup_s, run_s, attempted * CR_BATCH, attempted, failed,
                   client.host_lat_us, client.sim_lat_us, sim_ns, cluster)


# -- pr_lossy_audit -------------------------------------------------------------------

def pr_inputs(seed: int, size: int) -> list[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(PR_CMD_BYTES) for _ in range(size)]


def pr_fault_schedule(seed: int, rounds: int, root: int,
                      children: list[int]) -> FaultSchedule:
    """About one action per 20 frames on every stream, kinds in a fixed cycle.

    Each round puts one frame on each of the 2 x children streams, so the
    number of actions grows with the number of rounds.
    """
    rng = random.Random(seed ^ 0x5EED)
    positions = []
    for child in children:
        session = transport_session(root, child)
        for sender in (root, child):
            index = rng.randrange(PR_FRAMES_PER_ACTION)
            while index < rounds:
                positions.append((index, session, sender))
                index += rng.randint(PR_FRAMES_PER_ACTION // 2,
                                     PR_FRAMES_PER_ACTION * 3 // 2)
    positions.sort()
    actions = []
    for n, (index, session, sender) in enumerate(positions):
        kind = ACTION_KINDS[n % len(ACTION_KINDS)]
        actions.append(FaultAction(
            kind=kind, session=session, sender=sender, index=index,
            delay_ns=rng.randint(1, 50) * 1_000,
            bit_offset=rng.randrange(8 * 256),
            earlier_index=rng.randrange(index + 1)))
    return FaultSchedule(seed=seed, actions=actions)


def _response_ok(payload: bytes, cmd: bytes) -> bool:
    result, echoed = decode_exec(decode_frame(payload).payload)
    return echoed == cmd and result == reference_execute(cmd)


def pr_lossy_audit(seed: int, cmds: list[bytes]) -> Episode:
    """PeerReview, 1 root and 3 children, 64 B commands, audits every 64 rounds."""
    t0 = time.perf_counter()
    scenario = PrScenario.build(seed=seed, n_children=PR_CHILDREN)
    net = scenario.cluster.net
    _wire(net)
    for endpoint in scenario.cluster.endpoints.values():
        endpoint.config.attest_delay_ns = TNIC_DELAY_NS
        endpoint.config.verify_delay_ns = TNIC_DELAY_NS
    root = scenario.root
    net.install_schedule(pr_fault_schedule(seed, len(cmds), root.node_id,
                                           root.children))
    setup_s = time.perf_counter() - t0

    host_lat, sim_lat = [], []
    run_ns = 0
    sim0 = net.clock.now_ns
    failed = 0
    for rnd, cmd in enumerate(cmds, start=1):
        sim_start = net.clock.now_ns
        start = time.perf_counter_ns()
        root.send(cmd)
        scenario.drain()
        verdicts = scenario.audit_all() if rnd % PR_AUDIT_EVERY == 0 else {}
        elapsed = time.perf_counter_ns() - start
        run_ns += elapsed
        host_lat.append(elapsed / 1e3)
        sim_lat.append((net.clock.now_ns - sim_start) / 1e3)
        answers = [root.responses[c] for c in root.children]
        if (any(len(a) != rnd or not _response_ok(a[-1], cmd) for a in answers)
                or not all(v.consistent for v in verdicts.values())):
            failed += 1
    attempted = len(cmds)
    if net.exhausted:
        failed = attempted
    return Episode(setup_s, run_ns / 1e9, attempted, attempted, failed,
                   host_lat, sim_lat, net.clock.now_ns - sim0, scenario)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object          # (seed, size) -> inputs
    episode: object         # (seed, inputs) -> Episode; bft and cr take byzantine=True
    size: int               # requests (or rounds) per episode
    protocol: str


WORKLOADS = {
    w.name: w for w in (
        Workload("bft_clients4", bft_inputs, bft_clients4, 256, "bft"),
        Workload("cr_n5_batch16", cr_inputs, cr_n5_batch16, 128, "chain"),
        Workload("pr_lossy_audit", pr_inputs, pr_lossy_audit, 1024, "peerreview"),
    )
}


def retained_entries(system) -> int:
    """Entries left in the stores that grow with every request."""
    total = len(system.cluster.net.trace)
    total += sum(len(ep.rejection_events)
                 for ep in system.cluster.endpoints.values())
    nodes = getattr(system, "replicas", None) or getattr(system, "nodes", {})
    for node in nodes.values():
        for store in ("applied", "acks", "pending_req"):
            total += len(getattr(node, store, ()))
    for client in getattr(system, "clients", ()):
        total += len(client.replies)
    return total
