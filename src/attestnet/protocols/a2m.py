"""Attested append-only memory: trusted logs in untrusted storage.

Each log is backed by one attestation session; an append attests the context
and the emitted counter becomes the entry's sequence number, so the log
position itself is bound under the MAC. Lookups are pure local reads;
verification is a separate, explicit step. Truncation never deletes bytes:
it appends a marker entry, records it in a dedicated manifest log, and moves
the verification boundary so forgotten entries can no longer be verified by
honest clients.
"""

import struct

from ..device import Endpoint
from ..errors import AuthFailure, OutOfRange
from ..kernel import AttestedMessage
from ..wire import decode_frame, encode_frame
from .logchain import LogEntry, TamperEvidentLog

TRNC_MARK = b"TRNC"


class A2mStore:
    """Append-only logs over one endpoint; log id doubles as the session id."""

    def __init__(self, endpoint: Endpoint, manifest_log: int):
        self.endpoint = endpoint
        self.manifest_log = manifest_log
        self.logs: dict[int, TamperEvidentLog] = {}
        self.heads: dict[int, int] = {}

    def _log(self, log_id: int) -> TamperEvidentLog:
        if log_id not in self.logs:
            # Session must exist; raises UnknownSession otherwise.
            self.endpoint.kernel.session_state(log_id)
            self.logs[log_id] = TamperEvidentLog()
            self.heads[log_id] = 0
        return self.logs[log_id]

    def _append(self, log_id: int, ctx: bytes) -> tuple[AttestedMessage, LogEntry]:
        log = self._log(log_id)
        msg = self.endpoint.local_send(log_id, ctx)
        entry = log.append(seq=msg.counter, ctx=ctx, tag=msg.tag)
        return msg, entry

    def append(self, log_id: int, ctx: bytes) -> tuple[bytes, int, bytes]:
        """Append ctx; returns the attested (tag, seq, ctx) triple."""
        msg, _ = self._append(log_id, ctx)
        return (msg.tag, msg.counter, ctx)

    def tail(self, log_id: int) -> int:
        return len(self._log(log_id))

    def head(self, log_id: int) -> int:
        return self.heads.get(log_id, 0)

    def lookup(self, log_id: int, index: int) -> LogEntry:
        """Pure local read; no kernel call, no counter movement."""
        log = self._log(log_id)
        if not self.heads[log_id] <= index < len(log):
            raise OutOfRange(f"index {index} outside [{self.heads[log_id]}, {len(log)})")
        return log.entry(index)

    def verify_lookup(self, log_id: int, entry: LogEntry,
                      head: int | None = None, tail: int | None = None) -> None:
        """Boundary check first, then the attestation tag.

        head/tail default to the store's live boundaries; clients replaying
        the manifest pass the recovered pair instead. Truncated entries always
        fail the boundary check before any cryptography runs.
        """
        log = self._log(log_id)
        if head is None:
            head = self.heads[log_id]
        if tail is None:
            tail = len(log)
        if not head <= entry.seq < tail:
            raise OutOfRange(f"seq {entry.seq} outside [{head}, {tail})")
        msg = AttestedMessage(tag=entry.tag, payload=entry.ctx,
                              device=self.endpoint.device, session=log_id,
                              counter=entry.seq)
        if not self.endpoint.kernel.tag_matches(msg):
            raise AuthFailure(f"stored entry {entry.seq} corrupted")

    def truncate(self, log_id: int, head: int, z: bytes) -> LogEntry:
        """Forget entries below head: marker into the log, marker proof into the manifest."""
        log = self._log(log_id)
        if head > len(log):
            raise OutOfRange(f"head {head} beyond tail {len(log)}")
        ctx = TRNC_MARK + struct.pack(">I", log_id) + z + struct.pack(">Q", head)
        trnc_msg, _ = self._append(log_id, ctx)
        manifest_ctx = encode_frame(trnc_msg)
        _, manifest_entry = self._append(self.manifest_log, manifest_ctx)
        self.heads[log_id] = head
        return manifest_entry

    def manifest_bounds(self, log_id: int) -> tuple[int, int] | None:
        """Replay the manifest backwards to the last truncation of this log.

        Returns (head, seq of the truncation marker) or None if the log was
        never truncated. Each manifest entry is verified before use.
        """
        manifest = self._log(self.manifest_log)
        for index in range(len(manifest) - 1, -1, -1):
            entry = manifest.entry(index)
            self.verify_lookup(self.manifest_log, entry, head=0, tail=len(manifest))
            trnc_msg = decode_frame(entry.ctx)
            payload = trnc_msg.payload
            if not payload.startswith(TRNC_MARK):
                continue
            (marked_log,) = struct.unpack_from(">I", payload, len(TRNC_MARK))
            if marked_log != log_id:
                continue
            (head,) = struct.unpack_from(">Q", payload, len(payload) - 8)
            return head, trnc_msg.counter
        return None
