"""Simulator: reliable-FIFO base contract, scripted adversary, retry
exhaustion and determinism."""

import dataclasses
import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from attestnet.device import DeviceConfig, SessionConfig, SimClock, connect
from attestnet.protocols.bft import BftCluster
from attestnet.protocols.common import transport_session
from attestnet.simnet import (
    ACTION_KINDS,
    DEFAULT_RETRY_BUDGET,
    FaultAction,
    FaultSchedule,
    Network,
)
from attestnet.wire import decode_frame, encode_frame

KEY = bytes(range(32))


def build_pair(schedule=None, retry_budget=16):
    net = Network(clock=SimClock(), retry_budget=retry_budget)
    if schedule is not None:
        net.install_schedule(schedule)
    net.declare_device(1)
    net.declare_device(2)
    a = connect(DeviceConfig(device=1, sessions=[SessionConfig(1, 2, KEY)]), net)
    b = connect(DeviceConfig(device=2, sessions=[SessionConfig(1, 1, KEY)]), net)
    return net, a, b


def rejections(endpoint):
    """The endpoint's rejections, counted per error kind."""
    return Counter(kind for _, kind in endpoint.rejection_events)


def test_empty_schedule_ten_frames_in_order():
    net, a, b = build_pair()
    for i in range(10):
        a.auth_send(1, bytes([i]))
    net.run_until_quiescent()
    delivered = [ev for ev in net.trace if ev.disposition == "delivered"]
    assert len(delivered) == 10
    assert all(ev.accepted for ev in delivered)
    assert [m.counter for m in b.poll(1)] == list(range(10))


def test_drop_once_retransmission_repairs():
    schedule = FaultSchedule(actions=[
        FaultAction(kind="drop", session=1, sender=1, index=3)])
    net, a, b = build_pair(schedule)
    for i in range(10):
        a.auth_send(1, bytes([i]))
    net.run_until_quiescent()
    # oracle: the receiver's accepted counter trace is exactly 0..9
    assert [m.counter for m in b.poll(1)] == list(range(10))
    assert any(ev.disposition == "dropped" for ev in net.trace)


def test_forged_frame_delivered_but_never_polled():
    schedule = FaultSchedule(seed=99, actions=[
        FaultAction(kind="forge", session=1, sender=1, index=0)])
    net, a, b = build_pair(schedule)
    a.auth_send(1, b"real")
    net.run_until_quiescent()
    forged = [ev for ev in net.trace if ev.disposition == "forged"]
    assert len(forged) == 1 and not forged[0].accepted
    assert rejections(b)["AuthFailure"] == 1
    assert [m.payload for m in b.poll(1)] == [b"real"]


def test_duplicate_rejected_by_recv_counter():
    schedule = FaultSchedule(actions=[
        FaultAction(kind="duplicate", session=1, sender=1, index=0)])
    net, a, b = build_pair(schedule)
    a.auth_send(1, b"once")
    net.run_until_quiescent()
    assert rejections(b)["CounterMismatch"] == 1
    assert len(b.poll(1)) == 1


def test_replay_of_earlier_frame_rejected():
    schedule = FaultSchedule(actions=[
        FaultAction(kind="replay", session=1, sender=1, index=2,
                    earlier_index=0)])
    net, a, b = build_pair(schedule)
    for i in range(3):
        a.auth_send(1, bytes([i]))
    net.run_until_quiescent()
    assert [m.counter for m in b.poll(1)] == [0, 1, 2]
    assert rejections(b)["CounterMismatch"] == 1


def test_quiescence_no_traffic():
    net, _, _ = build_pair()
    net.run_until_quiescent()
    assert net.trace == []


def test_ping_pong_hundred_rounds():
    net, a, b = build_pair()
    for _ in range(100):
        a.auth_send(1, b"ping")
        net.run_until_quiescent()
        b.poll(1)
        b.auth_send(1, b"pong")
        net.run_until_quiescent()
        a.poll(1)
    delivered = [ev for ev in net.trace if ev.disposition == "delivered"]
    assert len(delivered) == 200


def test_drop_everything_exhausts_budget_quiescent():
    budget = 4
    drops = [FaultAction(kind="drop", session=1, sender=1)
             for _ in range((budget + 1) * 3)]
    net, a, b = build_pair(FaultSchedule(actions=drops), retry_budget=budget)
    a.auth_send(1, b"doomed")
    net.run_until_quiescent()   # terminates: liveness-only impact
    assert b.poll(1) == []
    assert len(net.exhausted) == 1
    assert b.rejection_events == []


def test_frames_behind_an_exhausted_frame_are_not_retransmitted():
    # One more wildcard drop on the leader's stream to replica 2 than the
    # retry budget allows: the first round's frame is lost. The next two
    # rounds' frames on that stream each fail once and are not retransmitted.
    session = transport_session(1, 2)
    cluster = BftCluster.build(n=3, f=1, seed=0, clients=2)
    net = cluster.cluster.net
    net.install_schedule(FaultSchedule(actions=[
        FaultAction(kind="drop", session=session, sender=1)
        for _ in range(DEFAULT_RETRY_BUDGET + 1)]))
    for round_id in range(1, 4):
        req = cluster.clients[0].issue(round_id)
        cluster.replicas[cluster.leader_id].leader_handle(req)
        cluster.drain()
    stream = [(ev.disposition, ev.accepted, ev.attempt) for ev in net.trace
              if (ev.src, ev.dst, ev.session) == (1, 2, session)]
    assert stream == ([("dropped", False, i) for i in range(1, 18)]
                      + [("delivered", False, 1)] * 2)
    assert [(decode_frame(r.data).counter, r.attempts) for r in net.exhausted] == [
        (0, 17), (1, 1), (2, 1)]


def test_frame_delayed_behind_an_exhausted_frame_is_still_delivered():
    # Frame 0 is delayed past frame 1's whole retry budget. Frame 2, sent once
    # frame 1 is exhausted, fails once and is not retransmitted; frame 0, whose
    # counter is lower than the lost one, is still accepted when it lands.
    schedule = FaultSchedule(actions=[
        FaultAction(kind="delay", session=1, sender=1, index=0, delay_ns=100_000)])
    net, a, b = build_pair(schedule, retry_budget=2)
    a.auth_send(1, b"late")
    a.auth_send(1, b"lost")
    while not net.exhausted:
        net.step()
    a.auth_send(1, b"behind")
    net.run_until_quiescent()
    assert [m.payload for m in b.poll(1)] == [b"late"]
    assert [(decode_frame(r.data).counter, r.attempts) for r in net.exhausted] == [
        (1, 3), (2, 1)]
    assert [ev.accepted for ev in net.trace].count(True) == 1


def test_accepted_replay_of_an_exhausted_frame_sends_the_frames_behind_it():
    # Frame 0 is dropped on every attempt. Frames 1 and 2 fail once behind
    # it, then a replay of frame 0 is accepted, so both are sent again and
    # delivered. The receiver holds every frame, so none is exhausted.
    drops = [FaultAction(kind="drop", session=1, sender=1, index=i) for i in range(3)]
    replay = FaultAction(kind="replay", session=1, sender=1, index=3, earlier_index=0)
    net, a, b = build_pair(FaultSchedule(actions=drops + [replay]), retry_budget=2)
    a.auth_send(1, b"zero")
    net.run_until_quiescent()
    a.auth_send(1, b"one")
    a.auth_send(1, b"two")
    net.run_until_quiescent()
    assert [m.payload for m in b.poll(1)] == [b"zero", b"one", b"two"]
    assert net.exhausted == []
    assert [(ev.disposition, ev.accepted, ev.attempt) for ev in net.trace] == [
        ("dropped", False, 1), ("dropped", False, 2), ("dropped", False, 3),
        ("delivered", False, 1), ("delivered", False, 1), ("duplicated", True, 1),
        ("delivered", True, 2), ("delivered", True, 2)]


def _run_lossy(seed: int):
    """build_pair under all 7 kinds, wildcard drops past a small budget and
    replays of earlier indices, over several send-and-quiesce rounds."""
    rng = random.Random(seed)
    budget = rng.choice([1, 2, 3])
    actions = []
    for _ in range(rng.randrange(5, 40)):
        kind = "drop" if rng.random() < 0.5 else rng.choice(ACTION_KINDS)
        actions.append(FaultAction(
            kind=kind, session=1, sender=1,
            index=rng.randrange(0, 30) if rng.random() < 0.6 else None,
            delay_ns=rng.randrange(0, 20_000), earlier_index=rng.randrange(0, 10)))
    net, a, b = build_pair(FaultSchedule(seed=seed, actions=actions), budget)
    sent = 0
    for _ in range(rng.randrange(1, 5)):
        for i in range(rng.randrange(1, 5)):
            a.auth_send(1, bytes([sent]) * 3)
            sent += 1
        net.run_until_quiescent()
    return net, b, sent


def test_exhausted_lists_exactly_the_frames_never_accepted():
    for seed in range(300):
        net, b, sent = _run_lossy(seed)
        accepted = len(b.poll(1))
        lost = sorted(decode_frame(r.data).counter for r in net.exhausted)
        assert lost == list(range(accepted, sent)), f"seed {seed}"


def test_own_frame_reflected_back_is_rejected():
    # An adversary injects a's own second frame on b's stream back to a. It
    # is tagged under the shared session key, but a did not get it from its
    # peer, so b's frames are still the ones a accepts.
    net, a, b = build_pair()
    a.auth_send(1, b"a0")
    a1 = a.auth_send(1, b"a1")
    net.run_until_quiescent()
    net.install_schedule(FaultSchedule(actions=[FaultAction(
        kind="forge", session=1, sender=2, index=0, frame=encode_frame(a1))]))
    b.auth_send(1, b"b0")
    b.auth_send(1, b"b1")
    net.run_until_quiescent()
    assert [(m.device, m.payload) for m in a.poll(1)] == [(2, b"b0"), (2, b"b1")]
    assert a.rejection_events == [(1, "WrongSender")]
    assert net.exhausted == []


def test_bounded_drops_below_budget_preserve_liveness():
    # each frame dropped at most r=2 < 16 times
    actions = []
    for idx in range(6):
        actions.append(FaultAction(kind="drop", session=1, sender=1, index=idx))
    net, a, b = build_pair(FaultSchedule(actions=actions))
    for i in range(3):
        a.auth_send(1, bytes([i]))
    net.run_until_quiescent()
    assert [m.counter for m in b.poll(1)] == [0, 1, 2]


def _run_seeded(seed: int):
    rng = random.Random(seed)
    actions = []
    for _ in range(rng.randrange(0, 5)):
        kind = rng.choice(["drop", "duplicate", "delay", "reorder", "tamper",
                           "replay", "forge"])
        actions.append(FaultAction(kind=kind, session=1, sender=1,
                                   index=rng.randrange(0, 6),
                                   delay_ns=rng.randrange(0, 5000),
                                   earlier_index=0))
    schedule = FaultSchedule(seed=seed, actions=actions)
    net, a, b = build_pair(schedule)
    sent = []
    for i in range(6):
        payload = bytes([i]) * 3
        sent.append(payload)
        a.auth_send(1, payload)
    net.run_until_quiescent()
    received = [m.payload for m in b.poll(1)]
    trace = [(ev.time_ns, ev.src, ev.dst, ev.disposition, ev.accepted, ev.frame)
             for ev in net.trace]
    return sent, received, trace, dict(rejections(b))


def test_safety_prefix_under_seeded_schedules():
    """Across arbitrary schedules the accepted sequence is a prefix of the
    sent sequence."""
    for seed in range(40):
        sent, received, _, _ = _run_seeded(seed)
        assert received == sent[:len(received)], f"seed {seed}"


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# Digests of `_run_seeded(seed)` traces from a known-good run: any change to
# event order, arrival time, disposition, acceptance or frame bytes shows here.
SEEDED_TRACE_DIGESTS = {3: "3540c71d0709f86c", 17: "d811e4fd8ed65039",
                        29: "333fd6121e8146ea"}


def test_determinism_identical_traces():
    for seed in (3, 17, 29):
        run1 = _run_seeded(seed)
        run2 = _run_seeded(seed)
        assert run1 == run2
        assert _digest(run1[2]) == SEEDED_TRACE_DIGESTS[seed], f"seed {seed}"


def test_every_action_kind_pinned_trace():
    schedule = FaultSchedule(seed=5, actions=[
        FaultAction(kind="drop", session=1, sender=1, index=0),
        FaultAction(kind="duplicate", session=1, sender=1, index=2),
        FaultAction(kind="delay", session=1, sender=1, index=3, delay_ns=700),
        FaultAction(kind="reorder", session=1, sender=1, index=4),
        FaultAction(kind="tamper", session=1, sender=1, index=6),
        FaultAction(kind="replay", session=1, sender=1, index=7,
                    earlier_index=1),
        FaultAction(kind="forge", session=1, sender=1, index=8),
    ])
    assert sorted(a.kind for a in schedule.actions) == sorted(ACTION_KINDS)
    net, a, b = build_pair(schedule)
    for i in range(8):
        a.auth_send(1, bytes([i]) * 3)
    net.run_until_quiescent()
    assert [m.counter for m in b.poll(1)] == list(range(8))
    assert dict(rejections(b)) == {"CounterMismatch": 15, "AuthFailure": 2}
    assert net.exhausted == []
    # (time_ns, disposition, accepted, attempt) from a known-good run
    assert [(ev.time_ns, ev.disposition, ev.accepted, ev.attempt)
            for ev in net.trace] == [
        (1674, "dropped", False, 1),
        (1674, "delivered", False, 1),
        (1674, "delivered", False, 1),
        (1674, "delivered", False, 1),
        (1674, "tampered", False, 1),
        (1674, "delivered", False, 1),
        (1675, "duplicated", False, 1),
        (1675, "delivered", False, 1),
        (1675, "duplicated", False, 1),
        (2374, "delivered", False, 1),
        (3348, "delivered", True, 2),
        (3348, "delivered", True, 2),
        (3348, "delivered", True, 2),
        (3348, "delivered", False, 2),
        (3348, "delivered", False, 2),
        (3348, "delivered", False, 2),
        (3349, "forged", False, 1),
        (3349, "delivered", False, 2),
        (4048, "delivered", True, 2),
        (5022, "delivered", False, 3),
        (5022, "delivered", False, 3),
        (5022, "delivered", False, 3),
        (5023, "delivered", True, 3),
        (6696, "delivered", True, 4),
        (6696, "delivered", True, 4),
        (6696, "delivered", True, 4),
    ]
    assert _digest([ev.frame for ev in net.trace]) == "1b8400de3e489c58"


def test_copy_accepted_before_delayed_original_ends_its_retransmission():
    # The replay of frame 0 lands before the delayed original and is accepted;
    # the original, rejected on arrival, must not be retransmitted until the
    # retry budget runs out.
    schedule = FaultSchedule(actions=[
        FaultAction(kind="delay", session=1, sender=1, index=0, delay_ns=700),
        FaultAction(kind="replay", session=1, sender=1, index=5,
                    earlier_index=0),
    ])
    net, a, b = build_pair(schedule)
    for i in range(8):
        a.auth_send(1, bytes([i]) * 3)
    net.run_until_quiescent()
    assert net.exhausted == []
    assert [m.counter for m in b.poll(1)] == list(range(8))
    assert dict(rejections(b)) == {"CounterMismatch": 8}


def test_tampered_copy_accepted_on_another_session_does_not_settle_the_frame():
    # Sessions 1 and 3 share a key and a peer, and the session id is outside
    # the MAC: a bit flip that turns 1 into 3 makes b accept the frame on
    # session 3. The frame still has to reach session 1.
    net = Network(clock=SimClock())
    net.install_schedule(FaultSchedule(actions=[FaultAction(
        kind="tamper", session=1, sender=1, index=0, bit_offset=3 * 8 + 1)]))
    net.declare_device(1)
    net.declare_device(2)
    a = connect(DeviceConfig(device=1, sessions=[SessionConfig(1, 2, KEY),
                                                 SessionConfig(3, 2, KEY)]), net)
    b = connect(DeviceConfig(device=2, sessions=[SessionConfig(1, 1, KEY),
                                                 SessionConfig(3, 1, KEY)]), net)
    a.auth_send(1, b"x")
    net.run_until_quiescent()
    assert [(ev.disposition, ev.accepted) for ev in net.trace] == [
        ("tampered", True), ("delivered", True)]
    assert [m.payload for m in b.poll(3)] == [b"x"]
    assert [m.payload for m in b.poll(1)] == [b"x"]


def test_wildcard_action_listed_first_fires_first():
    wildcard = FaultAction(kind="drop", session=1)
    exact = FaultAction(kind="duplicate", session=1, sender=1, index=0)
    net, a, b = build_pair(FaultSchedule(actions=[wildcard, exact]))
    a.auth_send(1, b"x")
    net.run_until_quiescent()
    # The drop takes frame 0; the retransmission is observation 1, which the
    # exact action does not match.
    assert [ev.disposition for ev in net.trace] == ["dropped", "delivered"]
    assert [m.payload for m in b.poll(1)] == [b"x"]


def _linear_scan(actions):
    """Reference lookup: the earliest unspent matching action, by a scan."""
    spent = set()

    def next_action(session, sender, index):
        for i, action in enumerate(actions):
            if i not in spent and all(
                    want is None or want == got
                    for want, got in ((action.session, session),
                                      (action.sender, sender),
                                      (action.index, index))):
                spent.add(i)
                return action
        return None

    return next_action


def _key_field(high):
    return st.one_of(st.none(), st.integers(0, high))


@settings(max_examples=300, deadline=None)
@given(
    actions=st.lists(st.builds(FaultAction, kind=st.sampled_from(ACTION_KINDS),
                               session=_key_field(2), sender=_key_field(2),
                               index=_key_field(3)), max_size=20),
    copies=st.lists(st.integers(0, 19), max_size=6),
    observations=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                     st.integers(0, 3)), max_size=40),
)
def test_action_lookup_agrees_with_linear_scan(actions, copies, observations):
    if actions:   # equal but distinct actions, inserted after their originals
        actions = actions + [dataclasses.replace(actions[i % len(actions)])
                             for i in copies]
    net = Network()
    net.install_schedule(FaultSchedule(actions=actions))
    reference = _linear_scan(actions)
    for observation in observations:
        assert net._next_action(*observation) is reference(*observation)


def test_event_total_order():
    net, a, b = build_pair()
    for i in range(5):
        a.auth_send(1, bytes([i]))
    net.run_until_quiescent()
    times = [(ev.time_ns,) for ev in net.trace]
    assert times == sorted(times)


def test_net_events_are_immutable_and_hash_by_value():
    def trace():
        net, a, _ = build_pair()
        a.auth_send(1, b"x")
        net.run_until_quiescent()
        return net.trace

    (event,), (again,) = trace(), trace()
    for name in ("time_ns", "accepted", "frame"):
        with pytest.raises(AttributeError):
            setattr(event, name, getattr(event, name))
    with pytest.raises(AttributeError):
        event.extra = 1
    assert event == again and hash(event) == hash(again)
    assert event.disposition == "delivered" and event.accepted
    assert "frame" not in repr(event)
