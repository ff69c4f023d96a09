"""Attested append-only memory: trusted logs in untrusted storage.

Each log is a `TamperEvidentLog` on one attestation session, the log id: it
attests each append and stores it under the emitted counter, so the log
position itself is bound under the MAC. Lookups are pure local reads;
verification is a separate, explicit step, a tag check of the attestation
the log rebuilds. Truncation is a checkpoint: it appends a marker entry,
records it in a dedicated manifest log, then checkpoints the log
(`TamperEvidentLog.truncate`), which frees the forgotten entries. Lookup and
verification read the log's retained window, so a forgotten entry never
looks up or verifies again. A head outside that window is refused before
anything is appended, as are a marker whose frame overflows a manifest entry
and the manifest log, which `manifest_bounds` replays.
"""

import struct

from ..device import Endpoint
from ..errors import AuthFailure, OutOfRange, PayloadTooLarge
from ..kernel import MAX_PAYLOAD
from ..wire import FRAME_OVERHEAD, decode_frame, encode_frame
from .logchain import LogEntry, TamperEvidentLog

TRNC_MARK = b"TRNC"


class A2mStore:
    """Append-only logs over one endpoint; log id doubles as the session id."""

    def __init__(self, endpoint: Endpoint, manifest_log: int):
        self.endpoint = endpoint
        self.manifest_log = manifest_log
        self.logs: dict[int, TamperEvidentLog] = {}

    def _log(self, log_id: int) -> TamperEvidentLog:
        if log_id not in self.logs:
            self.logs[log_id] = TamperEvidentLog(self.endpoint, log_id)
        return self.logs[log_id]

    def append(self, log_id: int, ctx: bytes) -> tuple[bytes, int, bytes]:
        """Append ctx; returns the attested (tag, seq, ctx) triple."""
        msg = self._log(log_id).attest(ctx)
        return (msg.tag, msg.counter, ctx)

    def lookup(self, log_id: int, index: int) -> LogEntry:
        """Pure local read; no kernel call, no counter movement."""
        return self._log(log_id).entry(index)

    def verify_lookup(self, log_id: int, entry: LogEntry) -> None:
        """Window check first, then the attestation tag: a truncated entry
        fails with OutOfRange before any cryptography runs."""
        log = self._log(log_id)
        log.entry(entry.seq)
        if not self.endpoint.kernel.tag_matches(log.attestation(entry)):
            raise AuthFailure(f"stored entry {entry.seq} corrupted")

    def truncate(self, log_id: int, head: int, z: bytes) -> LogEntry:
        """Forget entries below head: marker into the log, marker proof into
        the manifest, then a checkpoint of the log at head."""
        if log_id == self.manifest_log:
            raise ValueError(f"log {log_id} is the manifest, which is never truncated")
        log = self._log(log_id)
        if not log.first <= head <= len(log):
            raise OutOfRange(f"head {head} outside [{log.first}, {len(log)}]")
        ctx = TRNC_MARK + struct.pack(">I", log_id) + z + struct.pack(">Q", head)
        if len(ctx) + FRAME_OVERHEAD > MAX_PAYLOAD:
            raise PayloadTooLarge(f"marker frame of {len(ctx) + FRAME_OVERHEAD} bytes")
        manifest = self._log(self.manifest_log)
        manifest.attest(encode_frame(log.attest(ctx)))
        log.truncate(head)
        return manifest.entries[-1]

    def manifest_bounds(self, log_id: int) -> tuple[int, int] | None:
        """Replay the manifest backwards to the last truncation of this log.

        Returns (head, seq of the truncation marker) or None if the log was
        never truncated. Each manifest entry is verified before use.
        """
        manifest = self._log(self.manifest_log)
        for index in range(len(manifest) - 1, -1, -1):
            entry = manifest.entry(index)
            self.verify_lookup(self.manifest_log, entry)
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
