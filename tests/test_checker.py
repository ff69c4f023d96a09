"""Bounded exhaustive checker: lemma verdicts, injected-bug kernels, replay."""

import functools
import hashlib
import json

import pytest

from attestnet.checker import (
    KERNELS,
    TRANSPORT_LEMMAS,
    BoundedInstance,
    check_all_lemmas,
    check_attestation_lemma,
    check_consistency,
    check_transport_lemmas,
    on_wire,
    replay_counterexample,
)
from attestnet.errors import AuthFailure, InstanceTooLarge
from attestnet.kernel import AttestationKernel
from attestnet.protocols.common import derive_key
from attestnet.simnet import ACTION_KINDS, FaultAction
from attestnet.wire import decode_frame, encode_frame


@functools.cache
def _reports(kernel: str, senders: int, messages: int):
    """check_all_lemmas plus check_consistency, computed once per instance."""
    instance = BoundedInstance(senders=senders, messages_per_sender=messages)
    return (*check_all_lemmas(instance, kernel), check_consistency(instance, kernel))


def test_correct_kernel_all_lemmas_hold():
    reports = _reports("correct", 2, 3)[:-1]     # check_all_lemmas' part
    assert [r.lemma for r in reports] == [
        "attestation", "transfer_auth", "no_lost", "no_reorder", "no_duplicate"]
    for report in reports:
        assert report.holds, report.line()


def test_attestation_lemma_holds():
    report = check_attestation_lemma(seed=11)
    assert report.holds


def test_frozen_counter_kernel_violates_no_duplicate():
    instance = BoundedInstance(senders=1, messages_per_sender=2)
    report = check_transport_lemmas(instance, "frozen-counter")["no_duplicate"]
    assert report.verdict == "Counterexample"
    assert "duplicate" in report.counterexample.mutation


def test_gap_accepting_kernel_violates_no_lost():
    instance = BoundedInstance(senders=1, messages_per_sender=2)
    report = check_transport_lemmas(instance, "gap-accepting")["no_lost"]
    assert report.verdict == "Counterexample"
    assert report.counterexample.mutation.startswith(("drop", "reorder"))


def test_consistency_holds_for_correct_kernel():
    instance = BoundedInstance(senders=1, messages_per_sender=3)
    report = check_consistency(instance)
    assert report.holds


def test_consistency_single_receiver_degenerate_case():
    # one message stream, both "receivers" see identical frames: vacuous hold
    instance = BoundedInstance(senders=1, messages_per_sender=1)
    assert check_consistency(instance).holds


def _three_frames() -> list[bytes]:
    sender = AttestationKernel(device=1)
    sender.provision_session(1, derive_key(0, 1))
    return [encode_frame(sender.attest(1, bytes([j]) + b"msg")) for j in range(3)]


def test_on_wire_applies_each_fault_kind_to_frame_1():
    f0, f1, f2 = frames = _three_frames()
    tampered = bytearray(f1)
    tampered[20] ^= 0x01          # the first payload byte
    expected = {
        "drop": [f0, f2],
        "duplicate": [f0, f1, f1, f2],
        "delay": [f0, f2, f1],
        "reorder": [f0, f2, f1],
        "tamper": [f0, bytes(tampered), f2],
        "replay": [f0, f1, f0, f2],     # earlier_index 0, right behind frame 1
    }
    assert set(expected) | {"forge"} == set(ACTION_KINDS)
    for kind, wire in expected.items():
        action = FaultAction(kind, index=1, delay_ns=10_000_000 if kind == "delay" else 0)
        assert on_wire(frames, action) == wire, kind
    assert on_wire(frames, None) == frames

    g0, g1, forged, g2 = on_wire(frames, FaultAction("forge", index=1))
    assert [g0, g1, g2] == frames
    assert forged[:-64] == f1[:-64] and forged != f1
    receiver = AttestationKernel(device=0)
    receiver.provision_session(1, derive_key(0, 1))
    receiver.verify(decode_frame(f0))   # the forgery's counter is now the expected one
    with pytest.raises(AuthFailure):
        receiver.verify(decode_frame(forged), peer=1)


def test_per_receiver_counter_kernel_violates_consistency():
    instance = BoundedInstance(senders=1, messages_per_sender=2)
    report = check_consistency(instance, kernel="per-receiver-counter")
    assert report.verdict == "Counterexample"


def test_instance_bounds_enforced():
    with pytest.raises(InstanceTooLarge):
        check_transport_lemmas(BoundedInstance(senders=3))
    with pytest.raises(InstanceTooLarge):
        check_transport_lemmas(BoundedInstance(messages_per_sender=9))


def test_counterexample_replay_reproduces_acceptance_pattern():
    instance = BoundedInstance(senders=1, messages_per_sender=2)
    report = check_transport_lemmas(instance, "gap-accepting")["no_lost"]
    cex = report.counterexample
    replayed = replay_counterexample(cex)
    assert replayed == cex.acceptance


def test_counterexample_serialization_roundtrip():
    from attestnet.checker import Counterexample

    instance = BoundedInstance(senders=1, messages_per_sender=2)
    report = check_transport_lemmas(instance, "frozen-counter")["no_duplicate"]
    data = report.counterexample.to_dict()
    restored = Counterexample.from_dict(data)
    assert restored.mutation == report.counterexample.mutation
    assert restored.delivery_order == report.counterexample.delivery_order
    assert replay_counterexample(restored) == report.counterexample.acceptance


def test_full_grid_holds_for_correct_kernel():
    for senders in (1, 2):
        for messages in (1, 2, 3, 4):
            for report in _reports("correct", senders, messages):
                assert report.holds, f"{senders}x{messages}: {report.line()}"


# The lemmas each kernel breaks, for senders 1 and 2 alike; every other
# lemma holds. With one message there is nothing to lose or reorder.
BROKEN_LEMMAS = {
    ("correct", 1): (),
    ("correct", 2): (),
    ("correct", 3): (),
    ("correct", 4): (),
    ("frozen-counter", 1): ("no_duplicate",),
    ("frozen-counter", 2): ("no_lost", "no_reorder", "no_duplicate", "consistency"),
    ("frozen-counter", 3): ("no_lost", "no_reorder", "no_duplicate", "consistency"),
    ("frozen-counter", 4): ("no_lost", "no_reorder", "no_duplicate", "consistency"),
    ("gap-accepting", 1): (),
    ("gap-accepting", 2): ("no_lost",),
    ("gap-accepting", 3): ("no_lost",),
    ("gap-accepting", 4): ("no_lost",),
    ("per-receiver-counter", 1): ("consistency",),
    ("per-receiver-counter", 2): ("consistency",),
    ("per-receiver-counter", 3): ("consistency",),
    ("per-receiver-counter", 4): ("consistency",),
}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("senders", (1, 2))
@pytest.mark.parametrize("messages", (1, 2, 3, 4))
def test_verdict_table_and_every_counterexample_replays(kernel, senders, messages):
    reports = _reports(kernel, senders, messages)
    broken = BROKEN_LEMMAS[kernel, messages]
    assert [(r.lemma, r.verdict) for r in reports] == [
        (lemma, "Counterexample" if lemma in broken else "Holds")
        for lemma in ("attestation", *TRANSPORT_LEMMAS, "consistency")]
    for report in reports:
        cex = report.counterexample
        if cex is not None and cex.delivery_order:
            assert replay_counterexample(cex) == cex.acceptance, report.lemma


# sha256 (first 16 hex digits) of the JSON list of (report.line(),
# counterexample.to_dict() or None) over check_all_lemmas plus
# check_consistency, from a known-good run; seed 0.
PINNED_REPORTS = {
    ("correct", 1, 1): "7d2170dfbb50d702",
    ("correct", 1, 2): "7d2170dfbb50d702",
    ("correct", 1, 3): "7d2170dfbb50d702",
    ("correct", 2, 1): "7d2170dfbb50d702",
    ("correct", 2, 2): "7d2170dfbb50d702",
    ("correct", 2, 3): "7d2170dfbb50d702",
    ("frozen-counter", 1, 1): "adfcbad857a73a3c",
    ("frozen-counter", 1, 2): "90a32fe54d687e40",
    ("frozen-counter", 1, 3): "d100601dad909830",
    ("frozen-counter", 2, 1): "d06655cde0254a36",
    ("frozen-counter", 2, 2): "41871511a5c55606",
    ("frozen-counter", 2, 3): "23ee8187af393977",
    ("gap-accepting", 1, 1): "7d2170dfbb50d702",
    ("gap-accepting", 1, 2): "b418022191613fd1",
    ("gap-accepting", 1, 3): "63dc020e7c1d6b4d",
    ("gap-accepting", 2, 1): "7d2170dfbb50d702",
    ("gap-accepting", 2, 2): "712fc57f338c3882",
    ("gap-accepting", 2, 3): "7ce7766e576e7035",
    ("per-receiver-counter", 1, 1): "2ae857652a44b9a2",
    ("per-receiver-counter", 1, 2): "23d17c872a4c09c2",
    ("per-receiver-counter", 1, 3): "e3200151a0ab8aba",
    ("per-receiver-counter", 2, 1): "9e541320b18032ae",
    ("per-receiver-counter", 2, 2): "942697ed99931d79",
    ("per-receiver-counter", 2, 3): "b9a4365bbe03c8ab",
}


@pytest.mark.parametrize("kernel", KERNELS)
def test_reports_and_counterexamples_pinned(kernel):
    for senders in (1, 2):
        for messages in (1, 2, 3):
            reports = _reports(kernel, senders, messages)
            pinned = [(r.line(), r.counterexample.to_dict()
                       if r.counterexample else None) for r in reports]
            digest = hashlib.sha256(
                json.dumps(pinned, sort_keys=True).encode()).hexdigest()[:16]
            assert digest == PINNED_REPORTS[kernel, senders, messages], (
                f"{senders}x{messages}")
