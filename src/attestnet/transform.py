"""Generic wrapper turning crash-fault-tolerant send/recv into Byzantine-safe ones.

On send, the application message is extended with a hash of the sender's
current state and an echo of the last verified message this receiver sent.
On receive, four checks run in order:

  1. kernel verification (already done before poll exposes the frame),
  2. the reported sender-state hash equals the hash of our own simulation of
     the sender's deterministic state machine,
  3. the echoed message carries a valid tag under our own device identity,
  4. the echo is our most recent message on this session (shared view): it
     names this session and carries the counter just below the kernel's
     send counter there, and it is absent only while we have sent nothing.
     The kernel never binds two payloads to one (session, counter), so an
     echo with a valid tag at that counter is exactly our last attested
     message; the wrapper keeps no record of its own.

Only then is the message applied. The wrapper is generic over the state
machine via two supplied functions, serialize (canonical bytes) and apply;
`probe_determinism` rejects a non-deterministic machine, once, before it is
simulated.
"""

import hashlib
from dataclasses import dataclass

from .device import Endpoint, pack_batch, unpack_batch
from .errors import (
    EchoForged,
    FrameError,
    NonDeterministicSpec,
    SenderStateMismatch,
    TransformError,
    UnknownSession,
    ViewLag,
)
from .kernel import AttestedMessage
from .wire import decode_frame, encode_frame


def state_hash(serialized: bytes) -> bytes:
    return hashlib.sha384(serialized).digest()


@dataclass(frozen=True)
class TransformEnvelope:
    """Canonical wire extension: message ‖ state hash ‖ optional echo frame,
    as the records of a `device.pack_batch` payload."""

    app_msg: bytes
    sender_state_hash: bytes
    receiver_echo: AttestedMessage | None

    def encode(self) -> bytes:
        echo = [] if self.receiver_echo is None else [encode_frame(self.receiver_echo)]
        return pack_batch([self.app_msg, self.sender_state_hash, *echo])

    @classmethod
    def decode(cls, data: bytes) -> "TransformEnvelope":
        """Inverse of encode; raises FrameError if the envelope does not parse."""
        records = unpack_batch(data)
        if len(records) not in (2, 3):
            raise FrameError(f"envelope of {len(records)} records")
        echo = decode_frame(records[2]) if len(records) == 3 else None
        return cls(records[0], records[1], echo)


def probe_determinism(initial_state, apply_fn, serialize_fn,
                      probe_msgs: list[bytes]) -> None:
    """Raise NonDeterministicSpec unless executing the canary messages twice
    from the initial state gives the same canonical serializations."""
    runs = []
    for _ in range(2):
        state = initial_state
        trace = [serialize_fn(state)]
        for msg in probe_msgs:
            state = apply_fn(state, msg)
            trace.append(serialize_fn(state))
        runs.append(trace)
    if runs[0] != runs[1]:
        raise NonDeterministicSpec("state machine failed determinism probe")


class StateSimulator:
    """Shadow copy of a peer's deterministic state machine.

    Keeping the shadow lets a receiver validate the sender's reported state
    without replaying the whole message history. Given `probe_msgs`,
    registration probes the machine for determinism first; a caller that
    simulates one machine for many peers probes it once itself.
    """

    def __init__(self, initial_state, apply_fn, serialize_fn,
                 probe_msgs: list[bytes] | None = None):
        if probe_msgs is not None:
            probe_determinism(initial_state, apply_fn, serialize_fn, probe_msgs)
        self.apply_fn = apply_fn
        self.serialize_fn = serialize_fn
        self.state = initial_state

    def expected_after(self, app_msg: bytes):
        """Candidate next state and its canonical serialization; nothing is
        committed. Hashing is left to callers that compare a hash."""
        candidate = self.apply_fn(self.state, app_msg)
        return candidate, self.serialize_fn(candidate)

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
    return ep.auth_send(session, envelope.encode())


def wrapped_recv(ep: Endpoint, session: int, sim: StateSimulator) -> bytes:
    """Run the four-step validation on the next verified frame and apply it."""
    polled = ep.poll(session, 1)
    if not polled:
        raise TransformError("no verified frame available")
    envelope = TransformEnvelope.decode(polled[0].payload)

    candidate, serialized = sim.expected_after(envelope.app_msg)
    if state_hash(serialized) != envelope.sender_state_hash:
        raise SenderStateMismatch(
            "sender deviated from the deterministic specification"
        )

    _check_echo(ep, session, envelope.receiver_echo)
    sim.commit(candidate)
    return envelope.app_msg


def _check_echo(ep: Endpoint, session: int, echo: AttestedMessage | None) -> None:
    sent = ep.kernel.session_state(session).send_cnt
    if echo is None:
        if sent:
            raise ViewLag("sender has not seen our latest message")
        return
    if echo.device != ep.device:
        raise EchoForged("echo does not name our device")
    try:
        if not ep.kernel.tag_matches(echo):
            raise EchoForged("echo tag invalid under our identity")
    except UnknownSession:
        raise EchoForged("echo names a session we do not hold") from None
    if echo.session != session or echo.counter != sent - 1:
        raise ViewLag("echo is not our most recent sent message")
