"""Device emulator: one endpoint binding the attestation kernel to a transport.

An endpoint owns the kernel state for its sessions, enforces the wire format,
charges a configurable processing delay per attest/verify event, and exposes
the messaging API: auth_send / local_send / local_verify / poll. Incoming
frames are verified before they ever reach an inbox, and only from the
session's peer; every rejection is one (session, error kind) event in
`rejection_events`, the observable the adversarial tests assert on.
local_verify keeps receive counters apart from the network's: a log frame
rides in plaintext inside every proof, and a copy the adversary delivers over
the network must not move the counter the proof is checked against.

Processing delays are charged to a simulated clock that advances integer
nanoseconds deterministically; host time is never read here.
"""

import struct
from collections import deque
from dataclasses import dataclass, field

from .errors import (
    DuplicateSession,
    FrameError,
    KernelError,
    TransportClosed,
    UnknownPeer,
    UnknownSession,
)
from .kernel import (
    AttestationKernel,
    AttestedMessage,
    DEFAULT_MAX_PAYLOAD,
    SessionState,
    verify_with,
)
from .wire import decode_frame, encode_frame


class SimClock:
    """Deterministic simulated clock; time moves only when charged."""

    def __init__(self, start_ns: int = 0):
        self.now_ns = start_ns

    def advance(self, delta_ns: int) -> None:
        if delta_ns < 0:
            raise ValueError("time cannot move backwards")
        self.now_ns += delta_ns

    def advance_to(self, t_ns: int) -> None:
        if t_ns > self.now_ns:
            self.now_ns = t_ns


@dataclass(frozen=True)
class SessionConfig:
    session: int
    peer: int
    key: bytes = field(repr=False)


@dataclass
class DeviceConfig:
    """Static configuration of one emulated device.

    attest_delay_ns models the per-attestation processing cost (the hardware
    reference point is 23 us); verify_delay_ns defaults to the same value.
    """

    device: int
    sessions: list[SessionConfig] = field(default_factory=list)
    attest_delay_ns: int = 0
    verify_delay_ns: int | None = None
    max_payload: int = DEFAULT_MAX_PAYLOAD

    def __post_init__(self):
        if self.attest_delay_ns < 0:
            raise ValueError("attest delay must be >= 0")
        if self.verify_delay_ns is None:
            self.verify_delay_ns = self.attest_delay_ns
        if self.verify_delay_ns < 0:
            raise ValueError("verify delay must be >= 0")
        seen = set()
        for sc in self.sessions:
            if sc.session in seen:
                raise DuplicateSession(f"session {sc.session} configured twice")
            seen.add(sc.session)


class Endpoint:
    """One emulated trusted-NIC endpoint driven by a single logical task.

    kernel_factory exists for the checker's injected-bug kernels; production
    code always uses the default.
    """

    def __init__(self, config: DeviceConfig, clock: SimClock | None = None,
                 kernel_factory=AttestationKernel):
        self.config = config
        self.device = config.device
        self.clock = clock if clock is not None else SimClock()
        self.kernel = kernel_factory(config.device, max_payload=config.max_payload)
        # Local-verification streams: same keys, receive counters of their own.
        self._local_states: dict[int, SessionState] = {}
        self.peers: dict[int, int] = {}
        self._inboxes: dict[int, deque[AttestedMessage]] = {}
        self.rejection_events: list[tuple[int, str]] = []
        self.transport = None
        self.bitstream_measurement: bytes | None = None
        self.identity_frozen = False
        for sc in config.sessions:
            self.provision_session(sc.session, sc.peer, sc.key)

    # -- provisioning ------------------------------------------------------

    def provision_session(self, session: int, peer: int, key: bytes) -> None:
        """Install a session: from the config at construction, or later by
        remote attestation."""
        self.kernel.provision_session(session, key)
        self._local_states[session] = SessionState(key=key)
        self.peers[session] = peer
        self._inboxes[session] = deque()

    def sessions(self) -> list[int]:
        return self.kernel.sessions()

    # -- sending -----------------------------------------------------------

    def _charge_attest(self) -> None:
        if self.config.attest_delay_ns:
            self.clock.advance(self.config.attest_delay_ns)

    def _charge_verify(self) -> None:
        if self.config.verify_delay_ns:
            self.clock.advance(self.config.verify_delay_ns)

    def local_send(self, session: int, payload: bytes) -> AttestedMessage:
        """Attest without transmitting; the multicast and log primitive."""
        msg = self.kernel.attest(session, payload)
        self._charge_attest()
        return msg

    def auth_send(self, session: int, payload: bytes) -> AttestedMessage:
        """Attest, frame, and submit to the transport; returns the message
        so callers can keep it as a proof of sending. A send that cannot be
        submitted raises before it uses up a counter."""
        if self.transport is None:
            raise TransportClosed("endpoint not connected")
        peer = self.peers.get(session)
        if peer is None:
            raise UnknownSession(f"session {session}")
        msg = self.kernel.attest(session, payload)
        self._charge_attest()
        self.transport.submit(self.device, peer, session, encode_frame(msg))
        return msg

    # -- receiving ---------------------------------------------------------

    def local_verify(self, session: int, msg: AttestedMessage) -> AttestedMessage:
        """Verify a handed-over message (BFT proof, chain level) on the local
        stream of the session the caller names, not the header's, which is
        outside the MAC; in the sender's emission order."""
        state = self._local_states.get(session)
        if state is None:
            raise UnknownSession(f"session {session}")
        self._charge_verify()
        try:
            return verify_with(state, msg, self.peers[session])
        except KernelError as exc:
            self.rejection_events.append((session, type(exc).__name__))
            raise

    def deliver_frame(self, data: bytes) -> bool:
        """Transport-facing entry point: decode, verify, enqueue.

        Returns True iff the frame was accepted into an inbox. Unverified
        traffic is never exposed; every rejection is recorded as an event.
        """
        try:
            msg = decode_frame(data)
        except FrameError:
            self.rejection_events.append((-1, "FrameError"))
            return False
        self._charge_verify()
        try:
            self.kernel.verify(msg, self.peers.get(msg.session))
        except KernelError as exc:
            self.rejection_events.append((msg.session, type(exc).__name__))
            return False
        # The kernel accepted it, so the session was provisioned with an inbox.
        self._inboxes[msg.session].append(msg)
        return True

    def poll(self, session: int, max_messages: int | None = None) -> list[AttestedMessage]:
        """Remove and return up to max verified messages, in counter order."""
        inbox = self._inboxes.get(session)
        if not inbox:
            return []
        if max_messages is None or max_messages >= len(inbox):
            out = list(inbox)
            inbox.clear()
            return out
        return [inbox.popleft() for _ in range(max_messages)]

    def expected_counter(self, session: int) -> int:
        """The counter the kernel accepts next on a session (0 if not held)."""
        return self.kernel.session_state(session).recv_cnt if session in self.peers else 0

    # -- rem_write -------------------------------------------------------------

    def rem_write(self, session: int, payload: bytes) -> AttestedMessage:
        """Remote write, realized as an attested message carrying the data.

        The emulator has no DMA; this is a semantic (not mechanical) match
        for one-sided writes.
        """
        return self.auth_send(session, payload)


def connect(config: DeviceConfig, net) -> Endpoint:
    """Create an endpoint, attach it to the network, and check peers.

    Peers must be attached or declared on the network handle; sessions are
    provisioned with zeroed counters.
    """
    ep = Endpoint(config, clock=net.clock)
    net.attach(ep)
    for sc in config.sessions:
        if not net.knows_device(sc.peer):
            raise UnknownPeer(f"device {sc.peer}")
    return ep


# -- application-level batching ----------------------------------------------
#
# batch payload = record count (4B BE) followed by each record as
# length (4B BE) + bytes. One attestation covers the whole batch.

def pack_batch(records: list[bytes]) -> bytes:
    parts = [struct.pack(">I", len(records))]
    for rec in records:
        parts.append(struct.pack(">I", len(rec)))
        parts.append(rec)
    return b"".join(parts)


def unpack_batch(payload: bytes) -> list[bytes]:
    if len(payload) < 4:
        raise FrameError("batch too short")
    (count,) = struct.unpack_from(">I", payload)
    records = []
    offset = 4
    for _ in range(count):
        if offset + 4 > len(payload):
            raise FrameError("truncated batch record header")
        (rec_len,) = struct.unpack_from(">I", payload, offset)
        offset += 4
        if offset + rec_len > len(payload):
            raise FrameError("truncated batch record")
        records.append(payload[offset:offset + rec_len])
        offset += rec_len
    if offset != len(payload):
        raise FrameError("trailing bytes after batch")
    return records
