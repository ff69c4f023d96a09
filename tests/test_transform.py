"""CFT-to-BFT wrapper: the two receive checks, shadow state, accusations."""

from attestnet.device import DeviceConfig, Endpoint, log_session
from attestnet.transform import Flag, Wrapper
from attestnet.wire import decode_frame, encode_frame

KEY = bytes(range(32))
SENDER, RECEIVER = 1, 2


# A deterministic machine that is not the BFT counter: state is an int, and
# each message adds its first byte.
def apply_sum(state: int, msg: bytes) -> int:
    return state + msg[0]


def serialize_sum(state: int) -> bytes:
    return state.to_bytes(4, "big")


def make_pair() -> tuple[Wrapper, Wrapper]:
    """A sender and a receiver that share the sender's log key."""
    wrappers = []
    for device, peer in ((SENDER, RECEIVER), (RECEIVER, SENDER)):
        endpoint = Endpoint(DeviceConfig(device=device))
        endpoint.provision([(log_session(SENDER), SENDER, KEY)])
        wrappers.append(Wrapper(endpoint, [peer], 0, apply_sum, serialize_sum))
    return wrappers[0], wrappers[1]


def test_honest_five_rounds_shadow_tracks_real_state():
    sender, receiver = make_pair()
    state = 0
    for i in range(1, 6):
        msg = bytes([i])
        state = apply_sum(state, msg)
        assert receiver.receive(SENDER, sender.attest(msg, state)) == (msg, state)
        assert receiver.states[SENDER] == state
    assert receiver.flags == []


def test_wrong_transition_detected_at_first_affected_round():
    sender, receiver = make_pair()
    assert receiver.receive(SENDER, sender.attest(b"\x03", 3)) == (b"\x03", 3)
    lying_state = apply_sum(3, b"\x02") + 1     # off by one
    assert receiver.receive(SENDER, sender.attest(b"\x02", lying_state)) is None
    assert receiver.flags == [Flag(RECEIVER, SENDER, "state-mismatch",
                                   "expected 00000005, got 00000006")]
    assert receiver.states[SENDER] == 3    # not advanced past the bad round


def test_second_attestation_for_one_step_is_equivocation():
    # The sender attests two conflicting first steps; a receiver handed only
    # the second sees it at the counter after the first.
    sender, receiver = make_pair()
    sender.attest(b"\x01", 1)
    second = sender.attest(b"\x02", 2)
    assert receiver.receive(SENDER, second) is None
    assert receiver.flags == [Flag(RECEIVER, SENDER, "equivocation",
                                   "expected counter 0, got 1")]
    assert receiver.states[SENDER] == 0


def test_flipped_tag_is_forged_attestation():
    sender, receiver = make_pair()
    msg = decode_frame(sender.attest(b"\x04", 4))
    forged = encode_frame(msg._replace(tag=bytes([msg.tag[0] ^ 1]) + msg.tag[1:]))
    assert receiver.receive(SENDER, forged) is None
    assert [(fl.accused, fl.reason) for fl in receiver.flags] == [
        (SENDER, "forged-attestation")]
    assert receiver.states[SENDER] == 0


def test_a_flagged_peers_later_frames_are_never_checked():
    sender, receiver = make_pair()
    frames = [sender.attest(b"\x01", 2), sender.attest(b"\x01", 2)]
    assert receiver.reads(SENDER)
    for frame in frames:                 # how a node reads its peers' frames
        if receiver.reads(SENDER):
            receiver.receive(SENDER, frame)
    assert [fl.reason for fl in receiver.flags] == ["state-mismatch"]
    assert not receiver.reads(SENDER) and receiver.reads(3)
    # The second frame never reached the kernel: its counter is still next.
    assert receiver.endpoint.expected_counter(log_session(SENDER)) == 1
