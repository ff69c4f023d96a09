"""Bounded exhaustive checker: lemma verdicts, injected-bug kernels, replay."""

import functools
import hashlib
import json

import pytest

from attestnet import checker
from attestnet.checker import (
    KERNELS,
    MAX_SENDERS,
    FrozenCounterKernel,
    GapAcceptingKernel,
    TRANSPORT_LEMMAS,
    BoundedInstance,
    check_all_lemmas,
    check_attestation_lemma,
    check_consistency,
    check_transport_lemmas,
    on_wire,
    replay_counterexample,
)
from attestnet.bootstrap import SecureChannel, Vendor
from attestnet.device import DeviceConfig, Endpoint
from attestnet.errors import (AuthFailure, HandshakeError, InstanceTooLarge,
                              PayloadTooLarge, WrongSender)
from attestnet.kernel import AttestationKernel, MAX_PAYLOAD, compute_tag
from attestnet.protocols.common import derive_key, log_session
from attestnet.simnet import ACTION_KINDS, FaultAction
from attestnet.wire import decode_frame, encode_frame


@functools.cache
def _reports(kernel: str, senders: int, messages: int):
    """check_all_lemmas, computed once per instance."""
    instance = BoundedInstance(senders=senders, messages_per_sender=messages)
    return check_all_lemmas(instance, kernel)


def test_correct_kernel_all_lemmas_hold():
    reports = _reports("correct", 2, 3)
    assert [r.lemma for r in reports] == [
        "attestation", "transfer_auth", "no_lost", "no_reorder", "no_duplicate",
        "consistency"]
    for report in reports:
        assert report.holds, report.line()


def test_attestation_lemma_holds():
    report = check_attestation_lemma(seed=11)
    assert report.holds


@pytest.mark.parametrize("device_at, vendor_at, rejected", [
    (5, 4, False),       # the vendor completes before the device
    (4, 4, False),       # ... or at the same step
    (None, 4, False),    # the device never completes
    (4, None, False),    # the vendor never completes
    (4, None, True),     # a completion is recorded, then the handshake fails
    (None, 4, True),
])
def test_attestation_lemma_reports_a_broken_completion_order(
        monkeypatch, device_at, vendor_at, rejected):
    # A test-only handshake that records the given completions.
    def handshake(vendor, controller, bundle, tamper=None):
        controller.completed_at, vendor.completed_at = device_at, vendor_at
        if rejected:
            raise HandshakeError("rejected after a completion")

    monkeypatch.setattr(checker, "run_handshake", handshake)
    report = check_attestation_lemma()
    assert report.verdict == "Counterexample"
    cex = report.counterexample
    assert (cex.lemma, cex.mutation) == ("attestation", "honest")
    assert cex.detail == ("completion recorded in rejected handshake honest" if rejected
                          else "vendor completed without prior device completion in honest")


def test_a_tampered_ack_is_checked_and_leaves_only_the_device_completion(monkeypatch):
    # Spy on every handshake the lemma runs: the ack scenario is among them,
    # it is rejected, and only the device, which installed the bundle before
    # it sealed the ack, records a completion.
    outcomes = {}
    real = checker.run_handshake

    def spy(vendor, controller, bundle, tamper=None):
        at_ack = tamper is not None and tamper("ack", bytes(32)) != bytes(32)
        try:
            return real(vendor, controller, bundle, tamper=tamper)
        except HandshakeError:
            if at_ack:
                outcomes["ack"] = (controller.completed_at, vendor.completed_at)
            raise

    monkeypatch.setattr(checker, "run_handshake", spy)
    assert check_attestation_lemma().holds
    assert outcomes == {"ack": (5, None)}


def test_a_vendor_that_completes_before_opening_the_ack_is_reported(monkeypatch):
    # A test-only vendor that records its completion as soon as an ack
    # arrives, before the channel has opened it.
    class EagerChannel(SecureChannel):
        def open(self, blob, aad=b""):
            if aad == b"ack":
                self.vendor.completed_at = 6
            return super().open(blob, aad)

    class EagerVendor(Vendor):
        def kex_finish(self, ctrl_kex):
            channel = super().kex_finish(ctrl_kex)
            channel.__class__, channel.vendor = EagerChannel, self
            return channel

    real = checker.make_pair

    def make_pair(*args, **kwargs):
        vendor, controller = real(*args, **kwargs)
        vendor.__class__ = EagerVendor
        return vendor, controller

    monkeypatch.setattr(checker, "make_pair", make_pair)
    cex = check_attestation_lemma().counterexample
    assert cex is not None and cex.mutation == "tampered-ack"
    assert cex.detail == "completion recorded in rejected handshake tampered-ack"


def test_an_instance_too_large_runs_no_handshake(monkeypatch):
    # check_all_lemmas validates the instance before any lemma does work.
    calls = []
    monkeypatch.setattr(checker, "run_handshake", lambda *args, **kw: calls.append(args))
    with pytest.raises(InstanceTooLarge):
        check_all_lemmas(BoundedInstance(senders=MAX_SENDERS + 7))
    assert calls == []


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


def _tag_blind(base):
    """A test-only kernel on `base` whose verify skips the tag comparison:
    it checks a copy of the frame that carries the genuine tag."""
    class TagBlindKernel(base):
        def verify(self, msg, peer=None):
            state = self.session_state(msg.session)
            genuine = compute_tag(state, msg.payload, msg.device, msg.counter)
            super().verify(msg._replace(tag=genuine), peer)
            return msg
    return TagBlindKernel


@pytest.mark.parametrize("base", [AttestationKernel, FrozenCounterKernel])
def test_tag_blind_kernel_violates_transfer_auth(monkeypatch, base):
    monkeypatch.setitem(checker.KERNELS, "tag-blind", _tag_blind(base))
    instance = BoundedInstance(senders=1, messages_per_sender=2)
    reports = check_transport_lemmas(instance, "tag-blind")
    cex = reports["transfer_auth"].counterexample
    assert cex is not None and cex.lemma == "transfer_auth"
    assert cex.mutation.startswith(("tamper", "forge"))
    assert replay_counterexample(cex) == cex.acceptance
    if base is FrozenCounterKernel:
        # Every transport lemma breaks, so the search stops early.
        assert not any(r.holds for r in reports.values())


def test_frozen_counter_kernel_keeps_the_payload_bound():
    kernel = FrozenCounterKernel(device=1)
    kernel.provision_session(1, derive_key(0, 1))
    with pytest.raises(PayloadTooLarge):
        kernel.attest(1, bytes(MAX_PAYLOAD + 1))


def test_frozen_counter_kernel_governs_handed_over_frames():
    # local_verify checks through the endpoint's kernel, as deliver_frame
    # does, so the mutant's frozen receive counter takes the same log frame
    # twice.
    sender = Endpoint(DeviceConfig(device=1))
    receiver = Endpoint(DeviceConfig(device=2), kernel_factory=FrozenCounterKernel)
    for endpoint in (sender, receiver):
        endpoint.provision([(log_session(1), 1, derive_key(0, log_session(1)))])
    entry = sender.local_send(log_session(1), b"log entry")
    assert receiver.local_verify(log_session(1), entry) == entry
    assert receiver.local_verify(log_session(1), entry) == entry


def test_gap_accepting_kernel_rejects_a_non_peer_without_moving_its_counter():
    # Frame 2 skips the gap from the peer; from any other device it is
    # rejected as production rejects it, and the counter stays at 0.
    frames = [decode_frame(f) for f in _three_frames()]
    receiver = GapAcceptingKernel(device=0)
    receiver.provision_session(1, derive_key(0, 1))
    with pytest.raises(WrongSender):
        receiver.verify(frames[2], peer=2)
    assert receiver.session_state(1).recv_cnt == 0
    assert receiver.verify(frames[2], peer=1) == frames[2]
    assert receiver.session_state(1).recv_cnt == 3


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
    assert data["lemma"] == "no_duplicate"
    restored = Counterexample.from_dict(data)
    assert restored == report.counterexample
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
        if cex is not None:
            assert cex.lemma == report.lemma and cex.delivery_order
            assert replay_counterexample(cex) == cex.acceptance, report.lemma


# sha256 (first 16 hex digits) of the JSON list of (report.line(),
# counterexample.to_dict() or None) over check_all_lemmas, from a known-good
# run; seed 0.
PINNED_REPORTS = {
    ("correct", 1, 1): "7d2170dfbb50d702",
    ("correct", 1, 2): "7d2170dfbb50d702",
    ("correct", 1, 3): "7d2170dfbb50d702",
    ("correct", 2, 1): "7d2170dfbb50d702",
    ("correct", 2, 2): "7d2170dfbb50d702",
    ("correct", 2, 3): "7d2170dfbb50d702",
    ("frozen-counter", 1, 1): "ec6336f187cf2d79",
    ("frozen-counter", 1, 2): "9e6eca161b997a0e",
    ("frozen-counter", 1, 3): "d12cf511b71b7919",
    ("frozen-counter", 2, 1): "e2353ceb2b2792d9",
    ("frozen-counter", 2, 2): "72fba180b4d05a86",
    ("frozen-counter", 2, 3): "847ea07d3c992c3f",
    ("gap-accepting", 1, 1): "7d2170dfbb50d702",
    ("gap-accepting", 1, 2): "058dc062873964b3",
    ("gap-accepting", 1, 3): "98c07e24b3cd4c4c",
    ("gap-accepting", 2, 1): "7d2170dfbb50d702",
    ("gap-accepting", 2, 2): "c6160c4bc56d5eaf",
    ("gap-accepting", 2, 3): "85691c9eb1815fc2",
    ("per-receiver-counter", 1, 1): "dbe341179c9ed78d",
    ("per-receiver-counter", 1, 2): "1877e00280ea0393",
    ("per-receiver-counter", 1, 3): "96583f6d69569678",
    ("per-receiver-counter", 2, 1): "c841ecfd6bb7ee6b",
    ("per-receiver-counter", 2, 2): "6324551c0a62b055",
    ("per-receiver-counter", 2, 3): "d8de5ab497ff8137",
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
