"""Generic wrapper turning crash-fault-tolerant send/recv into Byzantine-safe ones.

On send, the application message is extended with a hash of the sender's
current state and an echo of the last verified message this receiver sent.
On receive, four checks run in order:

  1. kernel verification (already done before poll exposes the frame),
  2. the reported sender-state hash equals the hash of our own simulation of
     the sender's deterministic state machine,
  3. the echoed message carries a valid tag under our own device identity,
  4. the echo is the most recent message we actually sent (shared view).

Only then is the message applied. The wrapper is generic over the state
machine via two supplied functions, serialize (canonical bytes) and apply;
non-deterministic machines are rejected at registration.
"""

import hashlib
import struct
import weakref
from dataclasses import dataclass

from .device import Endpoint
from .errors import (
    EchoForged,
    NonDeterministicSpec,
    SenderStateMismatch,
    TransformError,
    UnknownSession,
    ViewLag,
)
from .kernel import AttestedMessage
from .wire import decode_frame, encode_frame

STATE_HASH_LEN = 48

# The last message each endpoint sent per session through wrapped_send; an
# entry goes away with its endpoint.
_LAST_SENT: "weakref.WeakKeyDictionary[Endpoint, dict[int, AttestedMessage]]" = (
    weakref.WeakKeyDictionary())


def state_hash(serialized: bytes) -> bytes:
    return hashlib.sha384(serialized).digest()


@dataclass(frozen=True)
class TransformEnvelope:
    """Canonical wire extension: message ‖ state hash ‖ optional echo."""

    app_msg: bytes
    sender_state_hash: bytes
    receiver_echo: AttestedMessage | None

    def encode(self) -> bytes:
        parts = [struct.pack(">I", len(self.app_msg)), self.app_msg,
                 self.sender_state_hash]
        if self.receiver_echo is None:
            parts.append(b"\x00")
        else:
            frame = encode_frame(self.receiver_echo)
            parts.append(b"\x01")
            parts.append(struct.pack(">I", len(frame)))
            parts.append(frame)
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "TransformEnvelope":
        (app_len,) = struct.unpack_from(">I", data)
        off = 4
        app_msg = data[off:off + app_len]
        off += app_len
        digest = data[off:off + STATE_HASH_LEN]
        off += STATE_HASH_LEN
        flag = data[off]
        off += 1
        if flag == 0:
            if off != len(data):
                raise TransformError("trailing bytes after envelope")
            return cls(app_msg, digest, None)
        (frame_len,) = struct.unpack_from(">I", data, off)
        off += 4
        echo = decode_frame(data[off:off + frame_len])
        if off + frame_len != len(data):
            raise TransformError("trailing bytes after envelope")
        return cls(app_msg, digest, echo)


class StateSimulator:
    """Shadow copy of a peer's deterministic state machine.

    Keeping the shadow lets a receiver validate the sender's reported state
    without replaying the whole message history. Registration probes the
    machine for determinism by double-executing a canary sequence and
    comparing canonical serializations.
    """

    def __init__(self, initial_state, apply_fn, serialize_fn,
                 probe_msgs: list[bytes] | None = None):
        self.apply_fn = apply_fn
        self.serialize_fn = serialize_fn
        self._probe(initial_state, probe_msgs or [])
        self.state = initial_state

    def _probe(self, initial_state, probe_msgs: list[bytes]) -> None:
        runs = []
        for _ in range(2):
            state = initial_state
            trace = [self.serialize_fn(state)]
            for msg in probe_msgs:
                state = self.apply_fn(state, msg)
                trace.append(self.serialize_fn(state))
            runs.append(trace)
        if runs[0] != runs[1]:
            raise NonDeterministicSpec("state machine failed determinism probe")

    def expected_after(self, app_msg: bytes):
        """Candidate next state and its hash; nothing is committed."""
        candidate = self.apply_fn(self.state, app_msg)
        return candidate, state_hash(self.serialize_fn(candidate))

    def commit(self, candidate) -> None:
        self.state = candidate


def wrapped_send(ep: Endpoint, session: int, app_msg: bytes, my_state,
                 serialize_fn, receiver_echo: AttestedMessage | None) -> AttestedMessage:
    """Build the envelope with this sender's state hash and transmit it."""
    envelope = TransformEnvelope(
        app_msg=app_msg,
        sender_state_hash=state_hash(serialize_fn(my_state)),
        receiver_echo=receiver_echo,
    )
    msg = ep.auth_send(session, envelope.encode())
    _last_sent(ep)[session] = msg
    return msg


def wrapped_recv(ep: Endpoint, session: int, sim: StateSimulator) -> bytes:
    """Run the four-step validation on the next verified frame and apply it."""
    polled = ep.poll(session, 1)
    if not polled:
        raise TransformError("no verified frame available")
    envelope = TransformEnvelope.decode(polled[0].payload)

    candidate, expected_hash = sim.expected_after(envelope.app_msg)
    if expected_hash != envelope.sender_state_hash:
        raise SenderStateMismatch(
            "sender deviated from the deterministic specification"
        )

    _check_echo(ep, session, envelope.receiver_echo)
    sim.commit(candidate)
    return envelope.app_msg


def _check_echo(ep: Endpoint, session: int, echo: AttestedMessage | None) -> None:
    last = _last_sent(ep).get(session)
    if echo is None:
        if last is not None:
            raise ViewLag("sender has not seen our latest message")
        return
    if echo.device != ep.device:
        raise EchoForged("echo does not name our device")
    try:
        if not ep.kernel.tag_matches(echo):
            raise EchoForged("echo tag invalid under our identity")
    except UnknownSession:
        raise EchoForged("echo names a session we do not hold") from None
    if last is None or echo != last:
        raise ViewLag("echo is not our most recent sent message")


def _last_sent(ep: Endpoint) -> dict[int, AttestedMessage]:
    return _LAST_SENT.setdefault(ep, {})
