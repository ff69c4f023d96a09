"""Device emulator: one endpoint binding the attestation kernel to a transport.

An endpoint owns the kernel state for its sessions, enforces the wire format,
charges a configurable processing delay per attest/verify event, and exposes
the messaging API: auth_send / local_send / local_verify / poll. Incoming
frames are verified before they ever reach an inbox, and only from the
session's peer; every rejection is one (session, error kind) event in
`rejection_events`, the observable the adversarial tests assert on.
Sessions are installed by `Endpoint.provision`, and a session's role follows
from its id: a log session (LOG_BASE | d, device d's attestation log) has no
inbox and is read only by `local_verify`; every other id, such as a transport
session (TRANSPORT_BASE | a << 8 | b, for device ids 0 <= a < b <= 255), has
an inbox and is reached only from the wire (`deliver_frame`). Each path
rejects the other role with `WrongSessionRole`, so a log frame copied onto
the wire never moves the counter its proof is checked against, and each
receive counter has one path that moves it. A frame handed over to
`local_verify` must also name, in its header, the session it is verified on.

Processing delays are charged to a simulated clock that advances integer
nanoseconds deterministically; host time is never read here. Each attest and
each verify adds `config.attest_delay_ns`, read at that moment so a harness
may set it after building, to `clock.now_ns` in place, in the method that
attests or verifies: these run for every frame, tag and reply, where a
helper's call frame per charge would cost more host time than the addition.
`DeviceConfig` refuses a negative delay whenever it is assigned, so a charge
never moves time backwards. `Network.attach` is the only way to join a
network; an attached endpoint charges the network's clock, and its
`auth_send` checks the peer is attached before attesting.
"""

import struct
from collections import deque
from dataclasses import dataclass

from .errors import (
    DuplicateSession,
    FrameError,
    KernelError,
    TransportClosed,
    UnknownPeer,
    UnknownSession,
    WrongSessionRole,
)
from .kernel import KEY_LEN, SESSION_LIMIT, AttestationKernel, AttestedMessage
from .wire import decode_frame, encode_frame

TRANSPORT_BASE = 0x0100_0000
LOG_BASE = 0x0200_0000


def transport_session(a: int, b: int) -> int:
    lo, hi = (a, b) if a < b else (b, a)
    if lo < 0 or hi > 0xFF:
        raise ValueError(f"a transport session holds device ids 0..255, got {a} and {b}")
    return TRANSPORT_BASE | (lo << 8) | hi


def log_session(device: int) -> int:
    return LOG_BASE | device


class SimClock:
    """Deterministic simulated clock; time moves only when charged.

    An endpoint charges it by adding its configured delay to `now_ns` in
    place, and `DeviceConfig` refuses a negative delay, so a charge never
    moves time backwards."""

    def __init__(self):
        self.now_ns = 0

    def advance_to(self, t_ns: int) -> None:
        if t_ns > self.now_ns:
            self.now_ns = t_ns


@dataclass
class DeviceConfig:
    """Static configuration of one emulated device; its sessions are
    installed afterwards by `Endpoint.provision`.

    attest_delay_ns models the processing cost of one attestation or one
    verification (the hardware reference point is 23 us). A harness may set
    it after the endpoint is built; a negative delay is refused whenever it
    is assigned, since an endpoint adds it to its clock unchecked.
    """

    device: int
    attest_delay_ns: int = 0

    def __setattr__(self, name, value):
        if name == "attest_delay_ns" and value < 0:
            raise ValueError("attest delay must be >= 0")
        object.__setattr__(self, name, value)


class Endpoint:
    """One emulated trusted-NIC endpoint driven by a single logical task.

    kernel_factory builds the kernel from the device id. Only the lemma
    checker passes one, so that its injected-bug kernels receive through
    this endpoint's `deliver_frame`, the production path; production code
    always uses the default.
    """

    def __init__(self, config: DeviceConfig, kernel_factory=AttestationKernel):
        self.config = config
        self.device = config.device
        self.clock = SimClock()
        self.kernel = kernel_factory(config.device)
        self.peers: dict[int, int] = {}
        self._inboxes: dict[int, deque[AttestedMessage]] = {}
        self.rejection_events: list[tuple[int, str]] = []
        self.transport = None
        self.bitstream_measurement: bytes | None = None
        self.identity_frozen = False

    # -- provisioning ------------------------------------------------------

    def provision(self, secrets: list[tuple[int, int, bytes]]) -> None:
        """Install (session, peer device, key) triples with zeroed counters;
        only a transport session gets an inbox. The whole list is checked
        first, so a refused list leaves the endpoint as it was."""
        seen = set(self.sessions())
        for session, _, key in secrets:
            if session in seen:
                raise DuplicateSession(f"session {session}")
            if not 0 <= session < SESSION_LIMIT:
                raise ValueError("session id out of 32-bit range")
            if len(key) != KEY_LEN:
                raise ValueError(f"session key must be {KEY_LEN} bytes")
            seen.add(session)
        for session, peer, key in secrets:
            self.kernel.provision_session(session, key)
            self.peers[session] = peer
            if not session & LOG_BASE:
                self._inboxes[session] = deque()

    def sessions(self) -> list[int]:
        return self.kernel.sessions()

    # -- sending -----------------------------------------------------------

    def local_send(self, session: int, payload: bytes) -> AttestedMessage:
        """Attest without transmitting; the multicast and log primitive."""
        msg = self.kernel.attest(session, payload)
        self.clock.now_ns += self.config.attest_delay_ns
        return msg

    def auth_send(self, session: int, payload: bytes) -> AttestedMessage:
        """Attest, frame, and submit to the transport; returns the message
        so callers can keep it as a proof of sending. A send that cannot be
        submitted raises before it uses up a counter, UnknownPeer when the
        session's peer has no endpoint on the transport."""
        if self.transport is None:
            raise TransportClosed("endpoint not connected")
        peer = self.peers.get(session)
        if peer is None:
            raise UnknownSession(f"session {session}")
        if peer not in self.transport.endpoints:
            raise UnknownPeer(f"device {peer}")
        msg = self.kernel.attest(session, payload)
        self.clock.now_ns += self.config.attest_delay_ns
        self.transport.submit(self.device, peer, session, encode_frame(msg))
        return msg

    # -- receiving ---------------------------------------------------------

    def local_verify(self, session: int, msg: AttestedMessage) -> AttestedMessage:
        """Verify a handed-over message (BFT proof, chain level) with the
        kernel's `verify`, on the log session the caller names, which its
        header, outside the MAC, must name too. The session checks come
        before any tag or charge; a rejection is recorded under `session`."""
        try:
            if session in self._inboxes:
                raise WrongSessionRole(f"session {session} is a transport session")
            if msg.session != session:
                raise WrongSessionRole(f"frame names session {msg.session}, not {session}")
            self.kernel.session_state(session)
            self.clock.now_ns += self.config.attest_delay_ns
            return self.kernel.verify(msg, self.peers[session])
        except KernelError as exc:
            self.rejection_events.append((session, type(exc).__name__))
            raise

    def deliver_frame(self, data: bytes) -> bool:
        """Transport-facing entry point: decode, verify, enqueue.

        Returns True iff the frame was accepted into an inbox. Unverified
        traffic is never exposed; every rejection is recorded as an event.
        A frame naming a log session is rejected before any tag is computed.
        """
        try:
            msg = decode_frame(data)
        except FrameError:
            self.rejection_events.append((-1, "FrameError"))
            return False
        self.clock.now_ns += self.config.attest_delay_ns
        inbox = self._inboxes.get(msg.session)
        try:
            if inbox is None and msg.session in self.peers:
                raise WrongSessionRole(f"session {msg.session} is a log session")
            self.kernel.verify(msg, self.peers.get(msg.session))
        except KernelError as exc:
            self.rejection_events.append((msg.session, type(exc).__name__))
            return False
        inbox.append(msg)
        return True

    def poll(self, session: int) -> list[AttestedMessage]:
        """Remove and return every verified message, in counter order."""
        inbox = self._inboxes.get(session)
        if not inbox:
            return []
        out = list(inbox)
        inbox.clear()
        return out

    def expected_counter(self, session: int) -> int:
        """The counter the kernel accepts next on a session (0 if not held)."""
        return self.kernel.session_state(session).recv_cnt if session in self.peers else 0


def connect(config: DeviceConfig, net) -> Endpoint:
    """Create an endpoint and attach it to the network, whose clock it then
    charges; `Endpoint.provision` installs its sessions. Its peers may attach
    later: a send to a peer that is not attached yet raises UnknownPeer in
    `auth_send`."""
    ep = Endpoint(config)
    net.attach(ep)
    return ep


# -- length-prefixed records -------------------------------------------------
#
# record = length (4B BE) ‖ bytes. batch = count (4B BE) ‖ records: many
# payloads under one attestation. pair = record ‖ tail: the protocols' record
# format. Both read every length through `_record`, the one bounds check.

_LEN = struct.Struct(">I")


def _record(data: bytes, offset: int) -> tuple[bytes, int]:
    """The record at offset and the offset past it; FrameError unless it fits."""
    if offset + 4 > len(data):
        raise FrameError("truncated record header")
    end = offset + 4 + _LEN.unpack_from(data, offset)[0]
    if end > len(data):
        raise FrameError("truncated record")
    return data[offset + 4:end], end


def pack_pair(head: bytes, tail: bytes) -> bytes:
    return _LEN.pack(len(head)) + head + tail


def unpack_pair(data: bytes) -> tuple[bytes, bytes]:
    """Inverse of pack_pair; raises FrameError if the head does not fit."""
    head, end = _record(data, 0)
    return head, data[end:]


def pack_batch(records: list[bytes]) -> bytes:
    parts = [_LEN.pack(len(records))]
    for rec in records:
        parts += (_LEN.pack(len(rec)), rec)
    return b"".join(parts)


def unpack_batch(payload: bytes) -> list[bytes]:
    if len(payload) < 4:
        raise FrameError("batch too short")
    records, offset = [], 4
    for _ in range(_LEN.unpack_from(payload)[0]):
        rec, offset = _record(payload, offset)
        records.append(rec)
    if offset != len(payload):
        raise FrameError("trailing bytes after batch")
    return records
