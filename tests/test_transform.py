"""CFT-to-BFT wrapper: envelope codec, the four receive checks, shadow state."""

import struct

import pytest

from attestnet.device import DeviceConfig, SimClock, connect
from attestnet.errors import (
    EchoForged,
    FrameError,
    NonDeterministicSpec,
    SenderStateMismatch,
    ViewLag,
)
from attestnet.simnet import Network
from attestnet.transform import (
    StateSimulator,
    TransformEnvelope,
    state_hash,
    wrapped_recv,
    wrapped_send,
)

KEY = bytes(range(32))


# A deterministic counter machine: state is an int, messages increment it by
# their first byte.
def apply_counter(state: int, msg: bytes) -> int:
    return state + msg[0]


def serialize_counter(state: int) -> bytes:
    return struct.pack(">Q", state)


def make_channel(sessions=(1,)):
    net = Network(clock=SimClock())
    a = connect(DeviceConfig(device=1), net)
    a.provision([(s, 2, KEY) for s in sessions])
    b = connect(DeviceConfig(device=2), net)
    b.provision([(s, 1, KEY) for s in sessions])
    return net, a, b


def test_envelope_roundtrip_with_and_without_echo():
    net, a, _ = make_channel()
    echo = a.local_send(1, b"echo source")
    for e in (None, echo):
        env = TransformEnvelope(app_msg=b"msg", sender_state_hash=b"\x01" * 48,
                                receiver_echo=e)
        assert TransformEnvelope.decode(env.encode()) == env


@pytest.mark.parametrize("data", [b"", b"\x00\x00\x00\x01", b"\x00" * 4 + b"\x01",
                                  b"\x00\x00\x00\x01\x00\x00\x00\x09msg"])
def test_envelope_that_does_not_parse_raises_frame_error(data):
    with pytest.raises(FrameError):
        TransformEnvelope.decode(data)


def test_identical_states_identical_hashes():
    assert state_hash(serialize_counter(5)) == state_hash(serialize_counter(5))
    assert state_hash(serialize_counter(5)) != state_hash(serialize_counter(6))


def test_first_round_absent_echo_accepted():
    net, a, b = make_channel()
    sim = StateSimulator(0, apply_counter, serialize_counter)
    state = apply_counter(0, b"\x05")
    wrapped_send(a, 1, b"\x05", state, serialize_counter, receiver_echo=None)
    net.run_until_quiescent()
    assert wrapped_recv(b, 1, sim) == b"\x05"
    assert sim.state == 5


def test_honest_five_rounds_shadow_tracks_real_state():
    net, a, b = make_channel()
    sim = StateSimulator(0, apply_counter, serialize_counter)
    sender_state = 0
    last_echo = None
    for i in range(1, 6):
        msg = bytes([i])
        sender_state = apply_counter(sender_state, msg)
        wrapped_send(a, 1, msg, sender_state, serialize_counter, last_echo)
        net.run_until_quiescent()
        out = wrapped_recv(b, 1, sim)
        assert out == msg
        assert sim.state == sender_state
        # receiver answers; sender keeps the last verified receiver message
        reply_state = sim.state
        last_echo = wrapped_send(b, 1, b"\x00", reply_state, serialize_counter,
                                 receiver_echo=None)
        net.run_until_quiescent()
        a.poll(1)     # sender consumes the receiver's message


def test_wrong_transition_detected_at_first_affected_round():
    # oracle: independent re-execution of the deterministic machine
    net, a, b = make_channel()
    sim = StateSimulator(0, apply_counter, serialize_counter)
    honest_state = apply_counter(0, b"\x03")
    wrapped_send(a, 1, b"\x03", honest_state, serialize_counter, None)
    net.run_until_quiescent()
    assert wrapped_recv(b, 1, sim) == b"\x03"

    lying_state = apply_counter(honest_state, b"\x02") + 1   # off by one
    wrapped_send(a, 1, b"\x02", lying_state, serialize_counter, None)
    net.run_until_quiescent()
    with pytest.raises(SenderStateMismatch):
        wrapped_recv(b, 1, sim)
    assert sim.state == 3     # shadow not advanced past the bad round


def test_stale_echo_rejected_as_view_lag():
    net, a, b = make_channel()
    sim = StateSimulator(0, apply_counter, serialize_counter)

    # receiver sends twice; sender echoes the OLD one
    first = wrapped_send(b, 1, b"\x01", 1, serialize_counter, None)
    second = wrapped_send(b, 1, b"\x01", 2, serialize_counter, None)
    net.run_until_quiescent()
    a.poll(1)

    state = apply_counter(0, b"\x09")
    wrapped_send(a, 1, b"\x09", state, serialize_counter, receiver_echo=first)
    net.run_until_quiescent()
    with pytest.raises(ViewLag):
        wrapped_recv(b, 1, sim)


@pytest.mark.parametrize("echoed", ["other-session", "older-counter"])
def test_echo_of_another_session_or_an_older_counter_is_view_lag(echoed):
    # The receiver sent twice on each session; each echo carries a valid tag
    # under its identity, and the other session's last message even has the
    # current counter, but only its last message on session 1 is current.
    net, a, b = make_channel(sessions=(1, 2))
    older = wrapped_send(b, 1, b"\x01", 1, serialize_counter, None)
    wrapped_send(b, 1, b"\x01", 2, serialize_counter, None)
    wrapped_send(b, 2, b"\x01", 1, serialize_counter, None)
    other = wrapped_send(b, 2, b"\x01", 2, serialize_counter, None)
    net.run_until_quiescent()
    a.poll(1)
    a.poll(2)
    echo = other if echoed == "other-session" else older
    assert b.kernel.tag_matches(echo)
    sim = StateSimulator(0, apply_counter, serialize_counter)
    wrapped_send(a, 1, b"\x04", 4, serialize_counter, receiver_echo=echo)
    net.run_until_quiescent()
    with pytest.raises(ViewLag):
        wrapped_recv(b, 1, sim)
    assert sim.state == 0


# Each forgery, and the check of `_check_echo` that must name it.
FORGED_ECHOES = {
    "another-device": (lambda echo: echo._replace(device=3), "name our device"),
    "bad-tag": (lambda echo: echo._replace(tag=bytes([echo.tag[0] ^ 1]) + echo.tag[1:]),
                "tag invalid"),
    "unknown-session": (lambda echo: echo._replace(session=99), "session we do not hold"),
}


@pytest.mark.parametrize("forge, reason", FORGED_ECHOES.values(), ids=FORGED_ECHOES)
def test_forged_echo_is_rejected(forge, reason):
    net, a, b = make_channel()
    echo = wrapped_send(b, 1, b"\x01", 1, serialize_counter, None)
    net.run_until_quiescent()
    a.poll(1)
    sim = StateSimulator(0, apply_counter, serialize_counter)
    wrapped_send(a, 1, b"\x04", 4, serialize_counter, receiver_echo=forge(echo))
    net.run_until_quiescent()
    with pytest.raises(EchoForged, match=reason):
        wrapped_recv(b, 1, sim)
    assert sim.state == 0


def test_absent_echo_after_receiver_sent_is_view_lag():
    net, a, b = make_channel()
    sim = StateSimulator(0, apply_counter, serialize_counter)
    wrapped_send(b, 1, b"\x01", 1, serialize_counter, None)
    net.run_until_quiescent()
    a.poll(1)
    state = apply_counter(0, b"\x04")
    wrapped_send(a, 1, b"\x04", state, serialize_counter, receiver_echo=None)
    net.run_until_quiescent()
    with pytest.raises(ViewLag):
        wrapped_recv(b, 1, sim)


def test_nondeterministic_machine_rejected_at_registration():
    import random as _random

    def flaky_apply(state, msg):
        return state + _random.randrange(1000000)

    with pytest.raises(NonDeterministicSpec):
        StateSimulator(0, flaky_apply, serialize_counter,
                       probe_msgs=[b"\x01", b"\x02"])


def test_deterministic_machine_passes_probe():
    sim = StateSimulator(0, apply_counter, serialize_counter,
                         probe_msgs=[b"\x01", b"\x02"])
    assert sim.state == 0
