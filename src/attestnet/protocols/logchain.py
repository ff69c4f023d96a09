"""Tamper-evident log: attested entries chained by cumulative digests.

An entry holds the attestation counter it was appended under (its sequence
number), the context bytes, the 64-byte tag, and a cumulative digest

    cum[i] = SHA-384(ctx ‖ seq (8B BE) ‖ cum[i-1]),   cum of the empty log = 48 zero bytes

so any rewrite of history breaks the chain at the first altered entry. Used
by both the attested append-only memory and the accountability protocol.
"""

import hashlib
from dataclasses import dataclass, field

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
    """Append-only entry store; mutation of stored entries is detectable, not prevented."""

    def __init__(self):
        self.entries: list[LogEntry] = []

    def append(self, seq: int, ctx: bytes, tag: bytes) -> LogEntry:
        prev = self.entries[-1].cum_digest if self.entries else GENESIS_DIGEST
        entry = LogEntry(seq=seq, ctx=ctx, tag=tag,
                         cum_digest=chain_digest(prev, ctx, seq))
        self.entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self.entries)
