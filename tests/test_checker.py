"""Bounded exhaustive checker: lemma verdicts, injected-bug kernels, replay."""

import hashlib
import json

import pytest

from attestnet.checker import (
    KERNELS,
    MULTICAST_RECEIVERS,
    MULTICAST_SESSION,
    BoundedInstance,
    _multicast_streams,
    _mutation_variants,
    check_all_lemmas,
    check_attestation_lemma,
    check_consistency,
    check_lemma,
    check_transport_lemmas,
    replay_counterexample,
)
from attestnet.errors import AuthFailure, InstanceTooLarge
from attestnet.kernel import AttestationKernel
from attestnet.protocols.common import derive_key
from attestnet.wire import decode_frame


def test_correct_kernel_all_lemmas_hold():
    instance = BoundedInstance(senders=2, messages_per_sender=3)
    reports = check_all_lemmas(instance)
    assert [r.lemma for r in reports] == [
        "attestation", "transfer_auth", "no_lost", "no_reorder", "no_duplicate"]
    for report in reports:
        assert report.holds, report.line()


def test_attestation_lemma_holds():
    report = check_attestation_lemma(seed=11)
    assert report.holds


def test_frozen_counter_kernel_violates_no_duplicate():
    instance = BoundedInstance(senders=1, messages_per_sender=2)
    report = check_lemma(instance, "no_duplicate", kernel="frozen-counter")
    assert report.verdict == "Counterexample"
    assert "duplicate" in report.counterexample.mutation


def test_gap_accepting_kernel_violates_no_lost():
    instance = BoundedInstance(senders=1, messages_per_sender=2)
    report = check_lemma(instance, "no_lost", kernel="gap-accepting")
    assert report.verdict == "Counterexample"
    assert report.counterexample.mutation.startswith(("drop", "swap"))


def test_consistency_holds_for_correct_kernel():
    instance = BoundedInstance(senders=1, messages_per_sender=3)
    report = check_consistency(instance)
    assert report.holds


def test_consistency_single_receiver_degenerate_case():
    # one message stream, both "receivers" see identical frames: vacuous hold
    instance = BoundedInstance(senders=1, messages_per_sender=1)
    assert check_consistency(instance).holds


def test_consistency_forgeries_reach_the_tag_check():
    instance = BoundedInstance(senders=1, messages_per_sender=2)
    variants = dict(_mutation_variants(instance,
                                       _multicast_streams(instance, "correct")))
    for j in range(2):
        stream = variants[f"forge@s1m{j}"][1]
        (forged,) = [item for item in stream if item.label == f"forge{j}"]
        receiver = AttestationKernel(device=MULTICAST_RECEIVERS[1])
        receiver.provision_session(MULTICAST_SESSION,
                                   derive_key(instance.seed, MULTICAST_SESSION))
        with pytest.raises(AuthFailure):
            receiver.verify(decode_frame(forged.frame))


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
    report = check_lemma(instance, "no_lost", kernel="gap-accepting")
    cex = report.counterexample
    replayed = replay_counterexample(cex)
    assert replayed == cex.acceptance


def test_counterexample_serialization_roundtrip():
    from attestnet.checker import Counterexample

    instance = BoundedInstance(senders=1, messages_per_sender=2)
    report = check_lemma(instance, "no_duplicate", kernel="frozen-counter")
    data = report.counterexample.to_dict()
    restored = Counterexample.from_dict(data)
    assert restored.mutation == report.counterexample.mutation
    assert restored.delivery_order == report.counterexample.delivery_order
    assert replay_counterexample(restored) == report.counterexample.acceptance


def test_full_grid_holds_for_correct_kernel():
    for senders in (1, 2):
        for messages in (1, 2, 3, 4):
            instance = BoundedInstance(senders=senders,
                                       messages_per_sender=messages)
            transport = check_transport_lemmas(instance)
            for lemma, report in transport.items():
                assert report.holds, f"{senders}x{messages}: {report.line()}"


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
    ("frozen-counter", 1, 2): "8154d51c63e2a615",
    ("frozen-counter", 1, 3): "60f38c33561ff320",
    ("frozen-counter", 2, 1): "d06655cde0254a36",
    ("frozen-counter", 2, 2): "05fafa799e19acfb",
    ("frozen-counter", 2, 3): "c0ee3c89d97dc09b",
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
            instance = BoundedInstance(senders=senders,
                                       messages_per_sender=messages)
            reports = check_all_lemmas(instance, kernel)
            reports.append(check_consistency(instance, kernel))
            pinned = [(r.line(), r.counterexample.to_dict()
                       if r.counterexample else None) for r in reports]
            digest = hashlib.sha256(
                json.dumps(pinned, sort_keys=True).encode()).hexdigest()[:16]
            assert digest == PINNED_REPORTS[kernel, senders, messages], (
                f"{senders}x{messages}")
