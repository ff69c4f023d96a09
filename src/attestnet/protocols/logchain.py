"""Tamper-evident log: attested entries chained by cumulative digests.

An entry holds the attestation counter it was appended under (its sequence
number), the context bytes, the 64-byte tag, and a cumulative digest

    cum[i] = SHA-384(ctx ‖ seq (8B BE) ‖ cum[i-1]),   cum of the empty log = 48 zero bytes

so any rewrite of history breaks the chain at the first altered entry. Used
by both the attested append-only memory and the accountability protocol.

Each log is fed by one attestation session whose counter starts at 0, so an
entry's seq is also its position: `append` refuses any other seq, and entries
are read by seq (`entry`).

A checkpoint (`truncate(seq)`) drops the entries below seq and keeps the
last dropped entry's cumulative digest as the anchor the next append chains
from; `len(log)` stays the tail, the seq the next append takes. Both users
truncate. PeerReview does after a consistent audit, up to what the witness
has audited: the witness already holds the anchor as its running digest, so
the retained entries still link to everything it checked. A2M does after it
has logged a truncation marker, so only the retained window looks up and
verifies.

Both check a stored entry's tag the same way: `LogEntry.attestation` is the
attested message the entry records, for the kernel's `tag_matches`.
"""

import hashlib
from dataclasses import dataclass, field

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

    def attestation(self, device: int, session: int) -> AttestedMessage:
        """The message `device` attested on `session` to log this entry."""
        return AttestedMessage(self.tag, self.ctx, device, session, self.seq)


class TamperEvidentLog:
    """Append-only entry store; mutation of stored entries is detectable, not
    prevented. `entries` holds the retained seqs `first` .. len(log) - 1."""

    def __init__(self):
        self.entries: list[LogEntry] = []
        self.first = 0
        self.anchor = GENESIS_DIGEST    # cum_digest of entry first - 1

    def append(self, seq: int, ctx: bytes, tag: bytes) -> LogEntry:
        if seq != len(self):
            raise OutOfRange(f"append at seq {seq}, but the next seq is {len(self)}")
        prev = self.entries[-1].cum_digest if self.entries else self.anchor
        entry = LogEntry(seq=seq, ctx=ctx, tag=tag,
                         cum_digest=chain_digest(prev, ctx, seq))
        self.entries.append(entry)
        return entry

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
