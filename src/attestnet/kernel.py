"""Attestation kernel: the entire trusted computing base of one emulated device.

The kernel binds every outgoing message to a per-session monotonic counter
under an HMAC, and accepts incoming messages only in exact counter order.
Together the two halves give non-equivocation (a sender cannot bind two
different payloads to one (device, session, counter) triple) and transferable
authentication (anyone holding the session key can check who produced a
message, even after forwarding).

Concretely a tag is HMAC-SHA-384 over

    payload ‖ device-id (4 bytes, big-endian) ‖ counter (8 bytes, big-endian)

zero-padded from 48 to 64 bytes. The session id selects the key but is not
part of the MAC input.

A session's key never changes, so each session keeps the two RFC 2104 pad
states: SHA-384 already fed `key xor ipad`, and SHA-384 already fed `key xor
opad`. A tag copies each state and hashes only the message and the inner
digest, with output byte-identical to `hmac.digest`. That saves rebuilding
both pads and looking SHA-384 up by name on every tag: about 1.5 us, half
the cost of a tag over a 160-byte payload. The states are built on a
session's first tag, not when it is provisioned: most sessions of a
short-lived cluster carry few frames or none, and building them up front
shows in setup time. Only session keys have pad states: client replies are
MACed outside the kernel, with keyed BLAKE2b (`protocols.common`).

Attest samples the send counter *before* incrementing it; verify accepts only
the exact expected receive counter and advances it by one; given the session's
peer, it rejects a message another key holder attested, such as a node's own
message reflected back. A rejected message never moves a counter, so a correct
retransmission of the expected counter can still be accepted afterwards.

Attest and verify run for every message, so `verify_with` checks the sender
inline after the tag, and `attest_with` and `wire.decode_frame` build their
`AttestedMessage` with `tuple.__new__(AttestedMessage, fields)`, skipping the
NamedTuple's generated Python `__new__`: on this path a call frame costs more
host time than the work it wraps.
"""

import hashlib
import hmac
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (
    AuthFailure,
    CounterMismatch,
    CounterOverflow,
    DuplicateSession,
    PayloadTooLarge,
    UnknownSession,
    WrongSender,
)

MAC_LEN = 48                    # HMAC-SHA-384 output
TAG_LEN = 64                    # wire tag: MAC zero-padded to 64 bytes
KEY_LEN = 32
DEVICE_WIRE_LEN = 4
COUNTER_WIRE_LEN = 8
SESSION_LIMIT = 2 ** 32
DEVICE_LIMIT = 2 ** 32
COUNTER_LIMIT = 2 ** 64
MAX_PAYLOAD = 64 * 1024

_TAG_PAD = b"\x00" * (TAG_LEN - MAC_LEN)
_BLOCK_LEN = 128                # SHA-384 block; every key is shorter
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))
_pack_binding = struct.Struct(">IQ").pack   # device-id ‖ counter


@dataclass
class SessionState:
    """Per-session key, monotonic counters, and the key's HMAC pad states.

    The key and the pad states are deliberately excluded from repr so
    session secrets never leak into logs or assertion messages. The pad
    states follow from the key, so equality ignores them. Counters only ever
    move forward, by exactly one per successful attest/verify.
    """

    key: bytes = field(repr=False)
    send_cnt: int = 0
    recv_cnt: int = 0
    # SHA-384 fed the key, zero-padded to a block, xor ipad / xor opad:
    # built on the first tag, then only ever copied.
    _inner: object = field(default=None, init=False, repr=False, compare=False)
    _outer: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.key) != KEY_LEN:
            raise ValueError(f"session key must be {KEY_LEN} bytes")

    def _build_pads(self):
        block = self.key.ljust(_BLOCK_LEN, b"\x00")
        self._inner = hashlib.sha384(block.translate(_IPAD))
        self._outer = hashlib.sha384(block.translate(_OPAD))
        return self._inner


class AttestedMessage(NamedTuple):
    """Wire unit: payload plus the attestation binding it to (device, session, counter).

    An immutable record: a verified message cannot be altered afterwards, and
    equal messages hash equal. A NamedTuple, not a frozen dataclass: one is
    built for every attest and every decoded frame, and a frozen dataclass
    runs `object.__setattr__` once per field, about three times the cost of
    a NamedTuple built from positional arguments.
    """

    tag: bytes
    payload: bytes
    device: int
    session: int
    counter: int


def compute_tag(state: SessionState, payload: bytes, device: int, counter: int) -> bytes:
    """64-byte attestation tag: HMAC-SHA-384 under the session's key over
    payload ‖ device ‖ counter, zero-padded to 64 bytes."""
    inner = state._inner
    if inner is None:
        inner = state._build_pads()
    inner = inner.copy()
    inner.update(payload)
    inner.update(_pack_binding(device, counter))
    outer = state._outer.copy()
    outer.update(inner.digest())
    return outer.digest() + _TAG_PAD


def attest_with(state: SessionState, device: int, session: int,
                payload: bytes) -> AttestedMessage:
    """Attest a payload against an explicit session state.

    The emitted counter is the send counter sampled before the increment,
    so a fresh session emits 0, 1, 2, ... with no repeats. Deterministic for
    fixed (key, payload, device, session, counter).
    """
    if len(payload) > MAX_PAYLOAD:
        raise PayloadTooLarge(f"{len(payload)} > {MAX_PAYLOAD}")
    if state.send_cnt >= COUNTER_LIMIT:
        raise CounterOverflow("send counter exhausted")
    counter = state.send_cnt
    tag = compute_tag(state, payload, device, counter)
    state.send_cnt = counter + 1
    return tuple.__new__(AttestedMessage, (tag, payload, device, session, counter))


def verify_with(state: SessionState, msg: AttestedMessage,
                peer: int | None = None) -> AttestedMessage:
    """Verify a message against an explicit session state.

    Acceptance requires the recomputed tag to match, the sender to be `peer`
    when one is given, *and* the counter to be exactly the expected receive
    counter; only then does the counter advance. Tag mismatch raises
    AuthFailure, another sender WrongSender, and a valid tag with the wrong
    counter (replay, gap, or reorder) CounterMismatch; none moves the state.
    """
    expected_tag = compute_tag(state, msg.payload, msg.device, msg.counter)
    if not hmac.compare_digest(expected_tag, msg.tag):
        raise AuthFailure("tag mismatch")
    if peer is not None and msg.device != peer:
        raise WrongSender(f"device {msg.device} is not the session's peer {peer}")
    if msg.counter != state.recv_cnt:
        raise CounterMismatch(expected=state.recv_cnt, got=msg.counter)
    if state.recv_cnt >= COUNTER_LIMIT:
        raise CounterOverflow("receive counter exhausted")
    state.recv_cnt += 1
    return msg


class AttestationKernel:
    """Keystore plus counter store for one device.

    All operations on one device are serialized by the owning task; the
    kernel itself performs no locking.
    """

    def __init__(self, device: int):
        if not 0 <= device < DEVICE_LIMIT:
            raise ValueError("device id out of 32-bit range")
        self.device = device
        self._sessions: dict[int, SessionState] = {}

    def provision_session(self, session: int, key: bytes) -> SessionState:
        """Install a shared key for a session with zeroed counters."""
        if not 0 <= session < SESSION_LIMIT:
            raise ValueError("session id out of 32-bit range")
        if session in self._sessions:
            raise DuplicateSession(f"session {session}")
        state = SessionState(key=key)
        self._sessions[session] = state
        return state

    def session_state(self, session: int) -> SessionState:
        try:
            return self._sessions[session]
        except KeyError:
            raise UnknownSession(f"session {session}") from None

    def sessions(self) -> list[int]:
        return list(self._sessions)

    # attest and verify run once per message, so they look the session up
    # themselves rather than through session_state.

    def attest(self, session: int, payload: bytes) -> AttestedMessage:
        try:
            state = self._sessions[session]
        except KeyError:
            raise UnknownSession(f"session {session}") from None
        return attest_with(state, self.device, session, payload)

    def verify(self, msg: AttestedMessage, peer: int | None = None) -> AttestedMessage:
        try:
            state = self._sessions[msg.session]
        except KeyError:
            raise UnknownSession(f"session {msg.session}") from None
        return verify_with(state, msg, peer)

    def tag_matches(self, msg: AttestedMessage) -> bool:
        """Pure MAC check with no counter movement.

        Used where entries are re-checked out of stream order (stored log
        entries, echoed messages); the session's key still decides validity.
        """
        state = self.session_state(msg.session)
        expected = compute_tag(state, msg.payload, msg.device, msg.counter)
        return hmac.compare_digest(expected, msg.tag)
