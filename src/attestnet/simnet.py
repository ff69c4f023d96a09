"""Deterministic discrete-event network with a scripted adversary.

The base contract without an adversary is reliable FIFO: exactly-once,
in-order delivery per session. A fault schedule perturbs traffic on the wire,
between the sender's kernel and the receiver's kernel: drop, duplicate,
delay, reorder, single-bit tamper, replay, and forged-frame injection. The
transport retransmits a failed frame, byte-identical (same counter), until a
retry budget is exhausted or the receiver holds it. The receiver's kernel
accepts only the next counter, so it holds a frame exactly when its receive
counter has passed the frame's, whether the frame or an adversary's copy got
through; the simulator reads that, it keeps no record of its own. Every frame
whose budget runs out and that the receiver never accepts is listed in
`Network.exhausted`.

Once a frame is exhausted, a later frame of its (src, dst, session) stream is
accepted only if an adversary's copy of the lost frame gets through first.
Such a frame is parked after its first failed attempt instead of being
retransmitted: it is sent again if a copy of the lost frame is accepted, and
exhausted once nothing is left in flight.

Every queued event has one shape, `(time, seq, frame record, bytes on the
wire, disposition)`, and one helper queues it. A drop is an event with
disposition "dropped" that is traced without reaching the receiver; duplicate,
replay and forge each queue one extra copy, never retransmitted, that lands
after the original.

Identical (topology, workload, schedule, seed) always produces the identical
event trace and endpoint diagnostics: simulated time advances only at event
processing, ties break on submission order, and the only randomness is the
schedule's seeded generator for forged-frame content.
"""

import heapq
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .device import Endpoint, SimClock
from .errors import UnknownPeer
from .kernel import TAG_LEN
from .wire import HEADER_LEN, frame_counter

DEFAULT_RETRY_BUDGET = 16
DEFAULT_BASE_LATENCY_NS = 1_500
DEFAULT_PER_BYTE_NS = 2

ACTION_KINDS = ("drop", "duplicate", "delay", "reorder", "tamper", "replay", "forge")
_COPIES = ("duplicated", "forged")   # dispositions of an adversary's extra copies


@dataclass(frozen=True)
class FaultAction:
    """One scripted adversarial action.

    Matches the index-th frame submission observed on the (session, sender)
    stream; None fields match anything. Each action fires at most once: when
    several unspent actions match a frame, the earliest in schedule order
    fires.
    """

    kind: str
    session: int | None = None
    sender: int | None = None
    index: int | None = None
    delay_ns: int = 0
    bit_offset: int = HEADER_LEN * 8     # default: first payload byte
    earlier_index: int = 0
    frame: bytes | None = None

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")


@dataclass
class FaultSchedule:
    """Deterministic script of adversarial actions; empty means loss-free FIFO."""

    seed: int = 0
    actions: list[FaultAction] = field(default_factory=list)


class NetEvent(NamedTuple):
    """One delivery-level observation, totally ordered by (time, sequence).

    An immutable record, like `AttestedMessage` and for the same reason: one
    is built for every frame event. Its repr leaves out the frame bytes.
    """

    time_ns: int
    src: int
    dst: int
    session: int
    disposition: str   # delivered | dropped | tampered | duplicated | forged
    accepted: bool
    attempt: int
    frame: bytes

    def __repr__(self) -> str:
        return (f"NetEvent(time_ns={self.time_ns}, src={self.src}, dst={self.dst}, "
                f"session={self.session}, disposition={self.disposition!r}, "
                f"accepted={self.accepted}, attempt={self.attempt})")


class _FrameRecord:
    __slots__ = ("data", "src", "dst", "session", "attempts")

    def __init__(self, data: bytes, src: int, dst: int, session: int):
        self.data = data
        self.src = src
        self.dst = dst
        self.session = session
        self.attempts = 0


class Network:
    """Single-threaded deterministic simulator core."""

    def __init__(self, clock: SimClock | None = None,
                 retry_budget: int = DEFAULT_RETRY_BUDGET):
        self.clock = clock if clock is not None else SimClock()
        self.retry_budget = retry_budget
        self.base_latency_ns = DEFAULT_BASE_LATENCY_NS
        self.per_byte_ns = DEFAULT_PER_BYTE_NS
        self.endpoints: dict[int, Endpoint] = {}
        self.trace: list[NetEvent] = []
        self._exhausted: list[_FrameRecord] = []
        # Per (src, dst, session) stream: the lowest exhausted counter, and
        # the frames behind it that wait for a copy of it.
        self._lost: dict[tuple[int, int, int], int] = {}
        self._parked: dict[tuple[int, int, int], list[_FrameRecord]] = {}
        # (time, seq, record, data on the wire, disposition)
        self._queue: list[tuple[int, int, _FrameRecord, bytes, str]] = []
        self._seq = 0
        self._rng = random.Random(0)
        self._stream_history: dict[tuple[int, int], list[bytes]] = {}
        self._pending_swap: dict[tuple[int, int], _FrameRecord] = {}
        # Unspent actions by (session, sender, index), None as the wildcard;
        # each bucket holds (schedule position, action), latest first.
        self._buckets: dict[tuple, list[tuple[int, FaultAction]]] = {}
        # Which of (session, sender, index) the keys in use fix.
        self._shapes: list[tuple[bool, bool, bool]] = []

    # -- topology ------------------------------------------------------------

    def attach(self, endpoint: Endpoint) -> None:
        """The only way to join: the endpoint becomes the network's record of
        its device, submits to it, and charges its clock from now on."""
        self.endpoints[endpoint.device] = endpoint
        endpoint.transport = self
        endpoint.clock = self.clock

    # -- adversary -------------------------------------------------------------

    def install_schedule(self, schedule: FaultSchedule) -> None:
        """Script the adversary: each frame observed from now on fires the
        earliest unspent action in schedule order that matches it, if any. A
        frame that a `reorder` already holds stays held.

        The actions are bucketed here, once, by their (session, sender,
        index) key. Every action in a bucket matches exactly the same frames,
        so a frame's action is the earliest bucket head among the keys it can
        match, found in constant time per frame: at most one dictionary probe
        per key shape the schedule uses (at most 8), whatever its length, and
        none for an empty schedule.
        """
        self._rng = random.Random(schedule.seed)
        self._stream_history.clear()
        buckets: dict[tuple, list[tuple[int, FaultAction]]] = {}
        for position, action in enumerate(schedule.actions):
            key = (action.session, action.sender, action.index)
            buckets.setdefault(key, []).append((position, action))
        for bucket in buckets.values():
            bucket.reverse()
        self._buckets = buckets
        self._shapes = sorted({(session is not None, sender is not None,
                                index is not None)
                               for session, sender, index in buckets})

    def _next_action(self, session: int, sender: int, index: int) -> FaultAction | None:
        best_key, best = None, None
        for has_session, has_sender, has_index in self._shapes:
            key = (session if has_session else None,
                   sender if has_sender else None,
                   index if has_index else None)
            bucket = self._buckets.get(key)
            if bucket is not None and (best is None or bucket[-1][0] < best[-1][0]):
                best_key, best = key, bucket
        if best is None:
            return None
        _, action = best.pop()
        if not best:
            del self._buckets[best_key]
        return action

    def _forged_frame(self, action: FaultAction, template: bytes) -> bytes:
        if action.frame is not None:
            return action.frame
        # Same header and payload as the template, random tag: the strongest
        # forgery an adversary without the session key can aim at.
        return template[:-TAG_LEN] + self._rng.randbytes(TAG_LEN)

    # -- submission ------------------------------------------------------------

    def latency_for(self, data: bytes) -> int:
        return self.base_latency_ns + self.per_byte_ns * len(data)

    def submit(self, src: int, dst: int, session: int, data: bytes) -> None:
        """Sender-side entry; applies adversarial actions at observation time."""
        if dst not in self.endpoints:
            raise UnknownPeer(f"device {dst}")
        self._observe(_FrameRecord(data, src, dst, session))

    def _observe(self, record: _FrameRecord) -> None:
        stream = (record.session, record.src)
        history = self._stream_history.setdefault(stream, [])
        index = len(history)
        history.append(record.data)

        # Release a held reorder frame after this one.
        held = self._pending_swap.pop(stream, None)

        action = (self._next_action(record.session, record.src, index)
                  if self._buckets else None)
        kind = action.kind if action is not None else None
        if kind == "reorder":
            self._pending_swap[stream] = record
            arrival = self.clock.now_ns
        elif kind == "drop":
            arrival = self._enqueue(record, record.data, "dropped")
        elif kind == "tamper":
            mutated = bytearray(record.data)
            byte_i, bit_i = divmod(action.bit_offset % (len(mutated) * 8), 8)
            mutated[byte_i] ^= 1 << bit_i
            arrival = self._enqueue(record, bytes(mutated), "tampered")
        else:
            extra_ns = action.delay_ns if kind == "delay" else 0
            arrival = self._enqueue(record, record.data, "delivered", extra_ns)

        copy = None
        if kind == "duplicate":
            copy = record.data
        elif kind == "replay":
            copy = history[min(action.earlier_index, len(history) - 1)]
        elif kind == "forge":
            copy = self._forged_frame(action, record.data)
        if copy is not None:
            copied = _FrameRecord(copy, record.src, record.dst, record.session)
            self._enqueue(copied, copy, "forged" if kind == "forge" else "duplicated",
                          after_ns=arrival)

        if held is not None:
            # The held frame lands strictly after the frame that released it.
            self._enqueue(held, held.data, "delivered", after_ns=arrival)

    def _enqueue(self, record: _FrameRecord, data: bytes, disposition: str,
                 extra_ns: int = 0, after_ns: int | None = None) -> int:
        """Queue one frame event; its arrival time is returned."""
        arrival = self.clock.now_ns + self.latency_for(record.data) + extra_ns
        if after_ns is not None:
            arrival = max(arrival, after_ns + 1)
        heapq.heappush(self._queue, (arrival, self._seq, record, data, disposition))
        self._seq += 1
        return arrival

    # -- event loop --------------------------------------------------------------

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        if not self._queue:
            for stream in sorted(self._pending_swap):
                held = self._pending_swap.pop(stream)
                self._enqueue(held, held.data, "delivered")
            if not self._queue:
                # Nothing in flight can deliver a lost frame any more.
                for stream in sorted(self._parked):
                    self._exhausted.extend(self._parked.pop(stream))
                return False
        time_ns, _, record, data, disposition = heapq.heappop(self._queue)
        clock = self.clock
        if time_ns > clock.now_ns:
            clock.now_ns = time_ns
        record.attempts += 1
        endpoint = self.endpoints[record.dst]
        accepted = disposition != "dropped" and endpoint.deliver_frame(data)
        lost = None
        if self._lost:
            stream = (record.src, record.dst, record.session)
            lost = self._lost.get(stream)
            if lost is not None and endpoint.expected_counter(record.session) > lost:
                # The receiver holds the stream's lost frame after all, through
                # an adversary's copy: the frames parked behind it are sent again.
                del self._lost[stream]
                lost = None
                for parked in self._parked.pop(stream, []):
                    self._observe(parked)
        self.trace.append(NetEvent(time_ns, record.src, record.dst, record.session,
                                   disposition, accepted, record.attempts, data))
        if (accepted and data is record.data) or disposition in _COPIES:
            return True
        counter = frame_counter(record.data)
        if endpoint.expected_counter(record.session) > counter:
            return True   # the receiver holds it through an adversary's copy
        if lost is not None and counter > lost:
            self._parked.setdefault(stream, []).append(record)
        elif record.attempts > self.retry_budget:
            self._exhausted.append(record)
            self._lost[record.src, record.dst, record.session] = counter
        else:
            self._observe(record)
        return True

    @property
    def exhausted(self) -> list[_FrameRecord]:
        """The frames whose retry budget ran out and that the receiver never
        accepted, not even through an adversary's copy."""
        return [record for record in self._exhausted
                if self.endpoints[record.dst].expected_counter(record.session)
                <= frame_counter(record.data)]

    def has_pending(self) -> bool:
        return bool(self._queue) or bool(self._pending_swap)

    def run_until_quiescent(self) -> None:
        """Drain all pending events; terminates because every action either
        consumes a frame or decrements a retry budget."""
        while self.step():
            pass
