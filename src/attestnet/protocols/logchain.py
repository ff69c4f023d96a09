"""Tamper-evident log: one log session's attestations, chained by cumulative
digests, and owned by the log.

`TamperEvidentLog(endpoint, session)` refuses a session the endpoint does
not hold. `attest(ctx)` attests ctx with one `local_send` and stores the
entry under the counter the kernel returned; `attestation(entry)` rebuilds
that message for any kernel holding the session key to re-check
(`tag_matches`). A log session's counter starts at 0, so an entry's seq is
also its position: `append`, the storage step, refuses any other seq with
OutOfRange and stores nothing, so the log stops at an attestation made on
its session outside it. Entries are read by seq (`entry`). An entry holds
its seq, the context bytes, the 64-byte tag, and a cumulative digest

    cum[i] = SHA-384(ctx ‖ seq (8B BE) ‖ cum[i-1]),   cum of the empty log = 48 zero bytes

so any rewrite of history breaks the chain at the first altered entry. Used
by both the attested append-only memory and the accountability protocol.
Each entry costs one attestation when it is logged and one tag check and one
digest when it is audited, so a user logs one entry per step: a PeerReview
root packs the frames of one send, or of one poll, into one entry, and a
child logs each command's frame inside the entry of its execution.

A checkpoint (`truncate(seq)`) drops the entries below seq and keeps the
last dropped entry's cumulative digest as the anchor the next append chains
from; `len(log)` stays the tail, the seq the next append takes. Both users
truncate. PeerReview does after a consistent audit, up to what the witness
has audited: the witness already holds the anchor as its running digest, so
the retained entries still link to everything it checked. A2M does after it
has logged a truncation marker, so only the retained window looks up and
verifies.
"""

import hashlib
from dataclasses import dataclass, field

from ..device import Endpoint
from ..errors import OutOfRange
from ..kernel import AttestedMessage

GENESIS_DIGEST = b"\x00" * 48


def chain_digest(prev_digest: bytes, ctx: bytes, seq: int) -> bytes:
    return hashlib.sha384(ctx + seq.to_bytes(8, "big") + prev_digest).digest()


@dataclass(slots=True)
class LogEntry:
    seq: int
    ctx: bytes
    tag: bytes = field(repr=False)
    cum_digest: bytes = field(repr=False)


class TamperEvidentLog:
    """The attested entries of one log session; tampering is detectable, not
    prevented. `entries` holds the retained seqs `first` .. len(log) - 1."""

    def __init__(self, endpoint: Endpoint, session: int):
        endpoint.kernel.session_state(session)    # UnknownSession unless held
        self.endpoint = endpoint
        self.session = session
        self.entries: list[LogEntry] = []
        self.first = 0
        self.anchor = GENESIS_DIGEST    # cum_digest of entry first - 1

    def attest(self, ctx: bytes) -> AttestedMessage:
        """Attest ctx on the log session and store it under its counter."""
        msg = self.endpoint.local_send(self.session, ctx)
        self.append(msg.counter, ctx, msg.tag)
        return msg

    def append(self, seq: int, ctx: bytes, tag: bytes) -> None:
        if seq != len(self):
            raise OutOfRange(f"append at seq {seq}, but the next seq is {len(self)}")
        prev = self.entries[-1].cum_digest if self.entries else self.anchor
        self.entries.append(LogEntry(seq=seq, ctx=ctx, tag=tag,
                                     cum_digest=chain_digest(prev, ctx, seq)))

    def attestation(self, entry: LogEntry) -> AttestedMessage:
        """The message the endpoint attested on the log session for entry."""
        return AttestedMessage(entry.tag, entry.ctx, self.endpoint.device,
                               self.session, entry.seq)

    def entry(self, seq: int) -> LogEntry:
        if not self.first <= seq < len(self):
            raise OutOfRange(f"seq {seq} outside the retained [{self.first}, {len(self)})")
        return self.entries[seq - self.first]

    def truncate(self, seq: int) -> None:
        """Checkpoint at seq: drop the entries below it."""
        if not self.first <= seq <= len(self):
            raise OutOfRange(f"checkpoint {seq} outside [{self.first}, {len(self)}]")
        if seq > self.first:
            self.anchor = self.entries[seq - self.first - 1].cum_digest
            del self.entries[:seq - self.first]
            self.first = seq

    def __len__(self) -> int:
        return self.first + len(self.entries)
