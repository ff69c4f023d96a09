"""Attested append-only memory: digest chain, boundaries, manifest replay."""

import hashlib

import pytest

from attestnet.device import DeviceConfig, Endpoint
from attestnet.errors import AuthFailure, OutOfRange, PayloadTooLarge, UnknownSession
from attestnet.kernel import MAX_PAYLOAD
from attestnet.protocols.a2m import A2mStore
from attestnet.protocols.logchain import GENESIS_DIGEST, LogEntry
from attestnet.scenario import run_scenario
from attestnet.wire import FRAME_OVERHEAD

LOG = 5
MANIFEST = 6
KEY_LOG = bytes(range(32))
KEY_MAN = bytes(range(32, 64))

# Frozen: SHA-384(b"a" || 0 as 8 BE bytes || 48 zero bytes), computed with
# hashlib directly before the library existed.
ENTRY0_DIGEST = bytes.fromhex(
    "56de2079df8ab67c2bc3d6809ca69ea21c7d2cc78654903ccb0afe553abfcd7e"
    "50f5f2ec6c28a497ac848cb7d0587597"
)


def make_store():
    endpoint = Endpoint(DeviceConfig(device=1))
    endpoint.provision([(LOG, 1, KEY_LOG), (MANIFEST, 1, KEY_MAN)])
    return A2mStore(endpoint, manifest_log=MANIFEST)


def chain_oracle(entries: list[tuple[int, bytes]]) -> list[bytes]:
    """Independent fold over the digest-chain definition."""
    digests = []
    prev = b"\x00" * 48
    for seq, ctx in entries:
        prev = hashlib.sha384(ctx + seq.to_bytes(8, "big") + prev).digest()
        digests.append(prev)
    return digests


def test_three_appends_sequential_seqs():
    store = make_store()
    seqs = [store.append(LOG, bytes([i]))[1] for i in range(3)]
    assert seqs == [0, 1, 2]


def test_entry_zero_digest_matches_definition():
    store = make_store()
    store.append(LOG, b"a")
    assert store.lookup(LOG, 0).cum_digest == ENTRY0_DIGEST


def test_hundred_appends_chain_matches_independent_fold():
    store = make_store()
    ctxs = [b"entry-%03d" % i for i in range(100)]
    for ctx in ctxs:
        store.append(LOG, ctx)
    stored = [store.lookup(LOG, i).cum_digest for i in range(100)]
    expected = chain_oracle([(i, ctxs[i]) for i in range(100)])
    assert stored == expected


def test_lookup_is_pure_read():
    store = make_store()
    store.append(LOG, b"x")
    send_before = store.endpoint.kernel.session_state(LOG).send_cnt
    recv_before = store.endpoint.kernel.session_state(LOG).recv_cnt
    store.lookup(LOG, 0)
    assert store.endpoint.kernel.session_state(LOG).send_cnt == send_before
    assert store.endpoint.kernel.session_state(LOG).recv_cnt == recv_before


def test_verify_lookup_accepts_live_entry():
    store = make_store()
    store.append(LOG, b"ok")
    store.verify_lookup(LOG, store.lookup(LOG, 0))


def test_corrupted_ctx_fails_auth():
    store = make_store()
    store.append(LOG, b"genuine")
    entry = store.lookup(LOG, 0)
    forged = LogEntry(seq=entry.seq, ctx=b"tampered", tag=entry.tag,
                      cum_digest=entry.cum_digest)
    with pytest.raises(AuthFailure):
        store.verify_lookup(LOG, forged)


def test_truncate_moves_boundary():
    store = make_store()
    for i in range(4):
        store.append(LOG, bytes([i]))
    early = store.lookup(LOG, 1)
    store.truncate(LOG, head=2, z=b"z" * 32)
    with pytest.raises(OutOfRange):
        store.verify_lookup(LOG, early)      # boundary check fires first
    live = store.lookup(LOG, 3)
    store.verify_lookup(LOG, live)


def test_manifest_replay_yields_boundaries():
    store = make_store()
    for i in range(5):
        store.append(LOG, bytes([i]))
    store.truncate(LOG, head=2, z=b"n" * 32)
    store.append(LOG, b"after")
    # oracle per the algorithm: walk the manifest backwards to the last
    # truncation marker of this log
    head, trnc_seq = store.manifest_bounds(LOG)
    assert head == 2
    assert trnc_seq == 5     # the marker appended after entries 0..4


def test_manifest_bounds_of_a_log_never_truncated_is_none():
    store = make_store()
    store.append(LOG, b"kept")
    assert store.manifest_bounds(LOG) is None


def test_manifest_bounds_skip_another_logs_truncation():
    other = 7
    endpoint = Endpoint(DeviceConfig(device=1))
    endpoint.provision([(LOG, 1, KEY_LOG), (MANIFEST, 1, KEY_MAN), (other, 1, KEY_LOG)])
    store = A2mStore(endpoint, manifest_log=MANIFEST)
    for i in range(3):
        store.append(LOG, bytes([i]))
        store.append(other, bytes([i]))
    store.truncate(LOG, head=1, z=b"l" * 32)
    store.truncate(other, head=2, z=b"o" * 32)
    # Walking back from the end, LOG's marker is found behind the other's.
    assert store.manifest_bounds(LOG) == (1, 3)
    assert store.manifest_bounds(other) == (2, 3)


def test_head_and_tail_after_truncate():
    store = make_store()
    for i in range(4):
        store.append(LOG, bytes([i]))
    assert (store.logs[LOG].first, len(store.logs[LOG])) == (0, 4)
    store.truncate(LOG, head=3, z=b"t" * 32)
    assert (store.logs[LOG].first, len(store.logs[LOG])) == (3, 5)   # the marker is entry 4


def test_truncate_below_the_head_is_refused_and_appends_nothing():
    store = make_store()
    for i in range(4):
        store.append(LOG, bytes([i]))
    store.truncate(LOG, head=3, z=b"t" * 32)
    manifest_len = len(store.logs[MANIFEST])
    with pytest.raises(OutOfRange):
        store.truncate(LOG, head=1, z=b"t" * 32)
    assert (len(store.logs[LOG]), len(store.logs[MANIFEST])) == (5, manifest_len)
    with pytest.raises(OutOfRange):
        store.lookup(LOG, 1)     # a forgotten entry stays forgotten


def test_the_manifest_log_is_never_truncated():
    store = make_store()
    for i in range(3):
        store.append(LOG, bytes([i]))
    store.truncate(LOG, head=2, z=b"m" * 32)
    with pytest.raises(ValueError):
        store.truncate(MANIFEST, head=1, z=b"m" * 32)
    assert store.manifest_bounds(LOG) == (2, 3)


def test_truncate_whose_marker_frame_overflows_the_manifest_appends_nothing():
    store = make_store()
    for i in range(3):
        store.append(LOG, bytes([i]))
    with pytest.raises(PayloadTooLarge):
        store.truncate(LOG, head=2, z=bytes(MAX_PAYLOAD - 16))
    assert (len(store.logs[LOG]), store.logs[LOG].first) == (3, 0)
    assert MANIFEST not in store.logs
    # The marker's frame, 84 bytes longer than the marker, fits exactly.
    store.truncate(LOG, head=2, z=bytes(MAX_PAYLOAD - 16 - FRAME_OVERHEAD))
    assert store.manifest_bounds(LOG) == (2, 3)


def test_truncate_with_an_unprovisioned_manifest_appends_nothing():
    endpoint = Endpoint(DeviceConfig(device=1))
    endpoint.provision([(LOG, 1, KEY_LOG)])
    store = A2mStore(endpoint, manifest_log=MANIFEST)
    store.append(LOG, b"only")
    with pytest.raises(UnknownSession):
        store.truncate(LOG, head=1, z=b"u" * 32)
    assert (len(store.logs[LOG]), endpoint.kernel.session_state(LOG).send_cnt) == (1, 1)


def test_truncate_frees_the_forgotten_entries():
    store = make_store()
    for i in range(64):
        store.append(LOG, bytes([i]))
    store.truncate(LOG, head=64, z=b"f" * 32)
    log = store.logs[LOG]
    assert [entry.seq for entry in log.entries] == [64]   # the marker alone
    store.verify_lookup(LOG, store.lookup(LOG, 64))


def test_truncate_twice_same_nonce_distinct_manifest_entries():
    store = make_store()
    for i in range(3):
        store.append(LOG, bytes([i]))
    e1 = store.truncate(LOG, head=1, z=b"q" * 32)
    e2 = store.truncate(LOG, head=2, z=b"q" * 32)
    assert e1.seq != e2.seq
    assert e1.ctx != e2.ctx     # inner attestation counters differ


def test_truncate_beyond_tail_rejected():
    store = make_store()
    store.append(LOG, b"only")
    with pytest.raises(OutOfRange):
        store.truncate(LOG, head=9, z=b"z" * 32)


def test_prefix_property_between_snapshots():
    """Earlier entries form a digest-verified prefix of any later snapshot."""
    store = make_store()
    for i in range(10):
        store.append(LOG, b"p%d" % i)
    snap1 = [store.lookup(LOG, i).cum_digest for i in range(10)]
    for i in range(10, 20):
        store.append(LOG, b"p%d" % i)
    snap2 = [store.lookup(LOG, i).cum_digest for i in range(20)]
    assert snap2[:10] == snap1
    # and the chain still verifies from genesis
    ctxs = [(i, b"p%d" % i) for i in range(20)]
    assert chain_oracle(ctxs) == snap2


def test_scenario_whose_lookup_misses_an_append_is_not_ok(monkeypatch):
    spec = {"protocol": "a2m", "rounds": 2, "payload": 8}
    assert run_scenario(spec).ok
    lookup = A2mStore.lookup
    monkeypatch.setattr(A2mStore, "lookup",
                        lambda self, log_id, index: lookup(self, log_id, 0))
    assert not run_scenario(spec).ok
