"""Attestation kernel: counter discipline, tag computation, rejection taxonomy."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attestnet.errors import (
    AuthFailure,
    CounterMismatch,
    DuplicateSession,
    PayloadTooLarge,
    UnknownSession,
    WrongSender,
    WrongSessionRole,
)
from attestnet.kernel import (
    AttestationKernel,
    AttestedMessage,
    COUNTER_LIMIT,
    MAX_PAYLOAD,
    SessionState,
    attest_with,
    compute_tag,
    verify_with,
)
from attestnet.wire import decode_frame, encode_frame

KEY = b"\x0b" * 32

# Frozen from an independent HMAC-SHA-384 oracle built from the RFC 2104
# definition (H((K xor opad) || H((K xor ipad) || m)), block size 128), for
# payload=b"attested payload", device=7, counter=3 under the 32x0x0b key.
ORACLE_TAG48 = bytes.fromhex(
    "48c8ca211d47e3fde344510bfc808720ea71a374ef90140ab1dda811caa0994a"
    "836591e08528927655bae05e02a5ead8"
)


def hmac_oracle(key: bytes, msg: bytes) -> bytes:
    """Reference HMAC straight from the definition; kept independent of the
    library's hmac usage on purpose."""
    block = 128
    if len(key) > block:
        key = hashlib.sha384(key).digest()
    key = key.ljust(block, b"\x00")
    ipad = bytes(b ^ 0x36 for b in key)
    opad = bytes(b ^ 0x5c for b in key)
    return hashlib.sha384(opad + hashlib.sha384(ipad + msg).digest()).digest()


def test_oracle_matches_published_rfc4231_vector():
    out = hmac_oracle(b"\x0b" * 20, b"Hi There")
    assert out.hex() == (
        "afd03944d84895626b0825f4ab46907f15f9dadbe4101ec682aa034c7cebc59c"
        "faea9ea9076ede7f4af152e8b2fa9cb6"
    )


def make_kernel(device=7, session=1, key=KEY, peer=1):
    """A kernel holding one session; device 1 sends in these tests, so the
    session's peer defaults to it."""
    kernel = AttestationKernel(device=device)
    kernel.provision_session(session, peer, key)
    return kernel


def test_tag_matches_independent_oracle():
    tag = compute_tag(SessionState(KEY, 1), b"attested payload", 7, 3)
    mac_input = b"attested payload" + (7).to_bytes(4, "big") + (3).to_bytes(8, "big")
    assert tag[:48] == hmac_oracle(KEY, mac_input)
    assert tag[:48] == ORACLE_TAG48
    assert tag[48:] == b"\x00" * 16
    assert len(tag) == 64


def test_fresh_session_first_counter_is_zero():
    kernel = make_kernel()
    msg = kernel.attest(1, b"m")
    assert msg.counter == 0
    assert kernel.session_state(1).send_cnt == 1


def test_consecutive_attests_distinct_tags_same_payload():
    kernel = make_kernel()
    a = kernel.attest(1, b"same")
    b = kernel.attest(1, b"same")
    assert (a.counter, b.counter) == (0, 1)
    assert a.tag != b.tag


def test_round_trip_verify_advances_recv():
    sender = make_kernel(device=1)
    receiver = make_kernel(device=2)
    msg = sender.attest(1, b"m")
    out = receiver.verify(msg)
    assert out == msg
    assert receiver.session_state(1).recv_cnt == 1


def test_second_delivery_rejected_as_counter_mismatch():
    sender = make_kernel(device=1)
    receiver = make_kernel(device=2)
    msg = sender.attest(1, b"m")
    receiver.verify(msg)
    with pytest.raises(CounterMismatch):
        receiver.verify(msg)
    # rejection leaves the counter untouched
    assert receiver.session_state(1).recv_cnt == 1


def test_flipped_payload_byte_fails_auth():
    sender = make_kernel(device=1)
    receiver = make_kernel(device=2)
    msg = sender.attest(1, b"payload")
    bad = AttestedMessage(tag=msg.tag, payload=b"paYload", device=msg.device,
                          session=msg.session, counter=msg.counter)
    with pytest.raises(AuthFailure):
        receiver.verify(bad)
    assert receiver.session_state(1).recv_cnt == 0


def test_provision_duplicate_session_rejected():
    kernel = make_kernel()
    with pytest.raises(DuplicateSession):
        kernel.provision_session(1, 1, KEY)


def test_shared_key_cross_device_verification():
    a = make_kernel(device=1)
    b = make_kernel(device=2)
    msg = a.attest(1, b"hello")
    assert b.verify(msg).payload == b"hello"


def test_unknown_session_and_payload_limits():
    kernel = AttestationKernel(device=1)
    with pytest.raises(UnknownSession):
        kernel.attest(5, b"m")
    kernel.provision_session(5, 1, KEY)
    with pytest.raises(PayloadTooLarge):
        kernel.attest(5, bytes(MAX_PAYLOAD + 1))


def test_counter_overflow_is_hard_error():
    from attestnet.errors import CounterOverflow

    state = SessionState(key=KEY, peer=1, send_cnt=COUNTER_LIMIT)
    with pytest.raises(CounterOverflow):
        attest_with(state, 1, 1, b"m")


def test_key_absent_from_repr():
    state = SessionState(key=KEY, peer=1)
    assert KEY.hex() not in repr(state)
    assert "0b0b" not in repr(state)
    compute_tag(state, b"m", 1, 0)   # builds the pad states
    assert repr(state) == "SessionState(peer=1, read_only=False, send_cnt=0, recv_cnt=0)"


@given(payloads=st.lists(st.binary(min_size=0, max_size=64), min_size=1,
                         max_size=40))
@settings(max_examples=50, deadline=None)
def test_monotonic_counters_and_fifo_acceptance(payloads):
    """Emitted counters are exactly 0,1,2,...; acceptance only in that order."""
    sender = make_kernel(device=1)
    receiver = make_kernel(device=2)
    msgs = [sender.attest(1, p) for p in payloads]
    assert [m.counter for m in msgs] == list(range(len(payloads)))
    # out-of-order first delivery fails for every non-zero start
    if len(msgs) > 1:
        with pytest.raises(CounterMismatch):
            receiver.verify(msgs[1])
    for msg in msgs:
        receiver.verify(msg)
    # once accepted, every earlier counter is rejected
    with pytest.raises(CounterMismatch):
        receiver.verify(msgs[0])


@given(data=st.binary(min_size=1, max_size=32))
@settings(max_examples=30, deadline=None)
def test_no_equivocation_triple_uniqueness(data):
    """A correct kernel never binds two payloads to one (device, session, counter)."""
    kernel = make_kernel(device=3)
    seen: dict[tuple, bytes] = {}
    for i in range(10):
        msg = kernel.attest(1, data + bytes([i]))
        triple = (msg.device, msg.session, msg.counter)
        assert triple not in seen
        seen[triple] = msg.payload


def test_determinism_of_attest():
    s1 = SessionState(key=KEY, peer=1)
    s2 = SessionState(key=KEY, peer=1)
    m1 = attest_with(s1, 9, 4, b"det")
    m2 = attest_with(s2, 9, 4, b"det")
    assert m1 == m2


def test_verify_with_designated_stream_is_independent():
    sender = make_kernel(device=1)
    main_stream = SessionState(key=KEY, peer=1)
    side_stream = SessionState(key=KEY, peer=1)
    msgs = [sender.attest(1, bytes([i])) for i in range(3)]
    for m in msgs:
        verify_with(main_stream, m)
    assert main_stream.recv_cnt == 3
    assert side_stream.recv_cnt == 0
    for m in msgs:
        verify_with(side_stream, m)
    assert side_stream.recv_cnt == 3


def test_verify_checks_the_sender_against_the_sessions_peer():
    # Every key holder can check a message; only the session's peer's
    # messages are accepted, and a rejection moves no counter.
    msg = make_kernel(device=1).attest(1, b"m")
    receiver = make_kernel(device=2, peer=3)
    with pytest.raises(WrongSender, match="device 1 is not the session's peer 3"):
        receiver.verify(msg)
    assert receiver.session_state(1).recv_cnt == 0
    with pytest.raises(WrongSender):
        verify_with(SessionState(KEY, 3), msg)


def test_a_read_only_session_verifies_but_never_attests():
    reader = AttestationKernel(device=2)
    state = reader.provision_session(1, 1, KEY, read_only=True)
    with pytest.raises(WrongSessionRole, match="session 1 is read-only on device 2"):
        reader.attest(1, b"m")
    with pytest.raises(WrongSessionRole):
        attest_with(state, 2, 1, b"m")
    assert state.send_cnt == 0
    msg = make_kernel(device=1).attest(1, b"m")
    assert reader.verify(msg) == msg and state.recv_cnt == 1


def test_session_id_is_outside_the_mac():
    # A documented choice: the session id only selects the key. Two sessions
    # that share a key therefore accept each other's frames once the header's
    # session id is rewritten; keeping keys distinct per session is what
    # separates them.
    sender = make_kernel(device=1, session=1)
    receiver = make_kernel(device=2, session=1)
    receiver.provision_session(2, 1, KEY)
    frame = bytearray(encode_frame(sender.attest(1, b"for session 1")))
    frame[:4] = (2).to_bytes(4, "big")
    moved = decode_frame(bytes(frame))
    assert moved.session == 2
    assert receiver.verify(moved).payload == b"for session 1"
    assert receiver.session_state(2).recv_cnt == 1
    assert receiver.session_state(1).recv_cnt == 0
    other = make_kernel(device=3, session=2, key=b"\x0c" * 32)
    with pytest.raises(AuthFailure):
        other.verify(moved)


# -- the per-session pad states behind compute_tag ---------------------------------

def library_tag(key: bytes, payload: bytes, device: int, counter: int) -> bytes:
    mac_input = payload + device.to_bytes(4, "big") + counter.to_bytes(8, "big")
    return hmac.digest(key, mac_input, "sha384") + bytes(16)


@given(key=st.binary(min_size=32, max_size=32),
       payload=st.one_of(
           st.sampled_from([0, 111, 112, 127, 128, 129]).flatmap(
               lambda n: st.binary(min_size=n, max_size=n)),
           st.integers(0, 64 * 1024).map(lambda n: bytes(range(256)) * (n // 256)
                                         + bytes(n % 256))),
       device=st.one_of(st.sampled_from([0, 2 ** 32 - 1]), st.integers(0, 2 ** 32 - 1)),
       counter=st.one_of(st.sampled_from([0, 2 ** 64 - 1]),
                         st.integers(0, 2 ** 64 - 1)))
@settings(max_examples=200, deadline=None)
def test_compute_tag_is_hmac_sha384_zero_padded(key, payload, device, counter):
    state = SessionState(key, 1)
    assert compute_tag(state, payload, device, counter) == library_tag(
        key, payload, device, counter)
    # the second tag runs on the cached pad states
    assert compute_tag(state, payload, device, counter) == library_tag(
        key, payload, device, counter)


def test_interleaved_sessions_tag_as_if_computed_apart():
    key_a, key_b = b"\x0a" * 32, b"\x0b" * 32
    payloads = [b"", b"x" * 127, b"y" * 128, b"z" * 5000]
    apart_a = [compute_tag(SessionState(key_a, 2), p, 1, i) for i, p in enumerate(payloads)]
    apart_b = [compute_tag(SessionState(key_b, 1), p, 2, i) for i, p in enumerate(payloads)]
    state_a, state_b = SessionState(key_a, 2), SessionState(key_b, 1)
    together = [(compute_tag(state_a, p, 1, i), compute_tag(state_b, p, 2, i))
                for i, p in enumerate(payloads)]
    assert together == list(zip(apart_a, apart_b))
    # the cached states are copied, never fed: a repeat gives the first tag
    assert compute_tag(state_a, payloads[0], 1, 0) == apart_a[0]


def test_equality_ignores_whether_pads_are_built():
    built, fresh = SessionState(key=KEY, peer=1), SessionState(key=KEY, peer=1)
    compute_tag(built, b"m", 1, 0)
    assert built._inner is not None and fresh._inner is None
    assert built == fresh
    assert built != SessionState(key=b"\x0c" * 32, peer=1)
    assert built != SessionState(key=KEY, peer=1, send_cnt=1)


def test_attested_message_is_immutable_and_hashes_by_value():
    """A verified message cannot be altered afterwards; equal ones are one key."""
    msg = make_kernel().attest(1, b"payload")
    for name in ("tag", "payload", "device", "session", "counter"):
        with pytest.raises(AttributeError):
            setattr(msg, name, getattr(msg, name))
    with pytest.raises(AttributeError):
        msg.extra = 1
    copy = decode_frame(encode_frame(msg))
    assert copy == msg and copy is not msg
    assert hash(copy) == hash(msg) and len({copy, msg}) == 1
    assert (copy.device, copy.session, copy.counter) == (7, 1, 0)
