"""Seeded property test: honest BFT, CR and PeerReview clusters under random
fault schedules, including forged copies of log frames lifted from proofs.

Before its last round, a BFT or CR client retries one earlier request id,
as a client that missed its replies would.

Whatever the adversary does on the wire, an honest run stays safe and
bounded: no frame that names a log session is accepted off the wire, every
inbox is empty once a round has drained, the BFT leader holds no pending
request, nobody is flagged, and the k-th execution commits value k at every
replica while a retried request keeps the value its client first accepted
(PeerReview: every audit is consistent).
"""

import random
import struct

import pytest

from attestnet.device import LOG_BASE, unpack_batch
from attestnet.errors import FrameError
from attestnet.protocols.bft import BftCluster
from attestnet.protocols.chain import ChainCluster
from attestnet.protocols.peerreview import PrScenario
from attestnet.simnet import ACTION_KINDS, FaultAction, FaultSchedule
from attestnet.wire import decode_frame

RUNS_PER_PROTOCOL = 25
ROUNDS = 3


def names_log_session(frame: bytes) -> bool:
    return bool(int.from_bytes(frame[:4], "big") & LOG_BASE)


def lifted_log_frames(trace) -> list[bytes]:
    """Every log frame that rides inside a delivered frame's payload: a BFT
    proof, ack or forward (after the kind byte), a chain level, or a
    PeerReview response."""
    found = []
    for event in trace:
        payload = decode_frame(event.frame).payload
        candidates = [payload, payload[1:]]
        try:
            candidates += unpack_batch(payload)[1:]
        except FrameError:
            pass
        for candidate in candidates:
            try:
                inner = decode_frame(candidate)
            except FrameError:
                continue
            if inner.session & LOG_BASE and candidate not in found:
                found.append(candidate)
    return found


class Bft:
    retries = True

    def __init__(self, rng, seed):
        f = rng.choice((1, 2))
        self.cluster = BftCluster.build(n=2 * f + 1, f=f, seed=seed)
        self.net = self.cluster.cluster

    def run_round(self, req_id, k, first_k):
        req = self.cluster.run_request(0, req_id)
        return (self.cluster.clients[0].accepted_value(req) == struct.pack(">Q", first_k)
                and set(self.cluster.correct_values().values()) == {k})

    def pending(self):
        return self.cluster.replicas[self.cluster.leader_id].pending_req

    def flags(self):
        return self.cluster.all_flags()


class Chain:
    retries = True

    def __init__(self, rng, seed):
        self.cluster = ChainCluster.build(n=rng.randint(3, 5), f=1, seed=seed)
        self.net = self.cluster.cluster

    def run_round(self, req_id, k, first_k):
        value = b"v%d" % req_id
        req = self.cluster.run_put(0, req_id, b"k%d" % req_id, value)
        return (self.cluster.clients[0].accepted_value(req)
                == struct.pack(">Q", first_k) + value
                and {node.machine.commit_index
                     for node in self.cluster.nodes.values()} == {k})

    def pending(self):
        return {}

    def flags(self):
        return self.cluster.all_flags()


class PeerReview:
    retries = False

    def __init__(self, rng, seed):
        self.scenario = PrScenario.build(seed=seed, n_children=rng.randint(1, 3))
        self.net = self.scenario.cluster

    def run_round(self, req_id, k, first_k):
        self.scenario.run_rounds([b"cmd-%d" % req_id])
        return all(v.consistent for v in self.scenario.audit_all().values())

    def pending(self):
        return {}

    def flags(self):
        return []


def request_ids(protocol, seed) -> list[int]:
    """The request id of each execution: 1 to ROUNDS, with an earlier id
    retried before the last round where the protocol has clients."""
    ids = list(range(1, ROUNDS + 1))
    if protocol.retries:
        ids.insert(-1, 1 + seed % (ROUNDS - 1))
    return ids


def run_rounds(run, req_ids):
    """Run each request in turn, yielding (k, whether it committed)."""
    first_k: dict[int, int] = {}
    for k, req_id in enumerate(req_ids, start=1):
        yield k, run.run_round(req_id, k, first_k.setdefault(req_id, k))


def random_schedule(rng, trace) -> FaultSchedule:
    """Up to 12 random fault actions on the streams a reference run used,
    at least one of them a forged copy of a lifted log frame."""
    lifted = lifted_log_frames(trace)
    streams = sorted({(event.session, event.src) for event in trace})
    actions = []
    for i in range(rng.randint(1, 12)):
        kind = "forge" if i == 0 else rng.choice(ACTION_KINDS)
        session, sender = rng.choice(streams)
        action = {"kind": kind, "session": session, "sender": sender,
                  "index": rng.randint(0, 4)}
        if kind == "forge" and (i == 0 or rng.random() < 0.5):
            action["frame"] = rng.choice(lifted)
        elif kind == "delay":
            action["delay_ns"] = rng.randint(0, 5_000)
        elif kind == "tamper":
            action["bit_offset"] = rng.randint(0, 1_000)
        elif kind == "replay":
            action["earlier_index"] = rng.randint(0, 3)
        actions.append(FaultAction(**action))
    return FaultSchedule(seed=rng.randint(0, 1_000), actions=actions)


@pytest.mark.parametrize("protocol", [Bft, Chain, PeerReview],
                         ids=["bft", "cr", "peerreview"])
def test_honest_runs_survive_random_fault_schedules(protocol):
    for seed in range(RUNS_PER_PROTOCOL):
        rng = random.Random(seed)
        req_ids = request_ids(protocol, seed)
        reference = protocol(random.Random(seed), seed)
        list(run_rounds(reference, req_ids))
        schedule = random_schedule(rng, reference.net.net.trace)

        run = protocol(random.Random(seed), seed)
        net = run.net.net
        net.install_schedule(schedule)
        for k, ok in run_rounds(run, req_ids):
            where = f"seed {seed} execution {k}"
            assert not [event for event in net.trace
                        if event.accepted and names_log_session(event.frame)], where
            assert all(endpoint.poll(session) == []
                       for endpoint in run.net.endpoints.values()
                       for session in endpoint.sessions()), where
            assert run.pending() == {}, where
            assert run.flags() == [], where
            assert ok and not net.exhausted, where
