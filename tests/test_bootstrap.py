"""Remote attestation: handshake success, tamper rejection taxonomy, secrecy."""

import random

import pytest

from attestnet.bootstrap import (
    AttestationCert,
    Controller,
    DeviceIdentity,
    ProvisioningBundle,
    Vendor,
    controller_binary,
    make_pair,
    measure,
    run_handshake,
)
from attestnet.device import DeviceConfig, Endpoint, log_session
from attestnet.errors import (
    BadControllerSignature,
    BadDeviceSignature,
    ChannelAuthFailure,
    DuplicateSession,
    HandshakeError,
    IdentityFrozen,
    MeasurementMismatch,
    StaleNonce,
)
from attestnet.wire import encode_frame

SECRETS = [(11, 2, bytes(range(32))), (12, 3, bytes(range(32, 64)))]


def fresh_endpoint(device=1):
    return Endpoint(DeviceConfig(device=device))


def bundle():
    return ProvisioningBundle(bitstream=b"bitstream-bytes", secrets=list(SECRETS))


def test_nonces_fresh_and_reproducible():
    endpoint = fresh_endpoint()
    vendor, _ = make_pair(5, 1, endpoint)
    n1 = vendor.begin()
    n2 = vendor.begin()
    assert len(n1) == len(n2) == 32
    assert n1 != n2
    vendor2, _ = make_pair(5, 1, fresh_endpoint())
    assert vendor2.begin() == n1     # seeded generator replays


def test_honest_handshake_provisions_endpoint():
    endpoint = fresh_endpoint()
    vendor, controller = make_pair(7, 1, endpoint)
    run_handshake(vendor, controller, bundle())
    assert sorted(endpoint.sessions()) == [11, 12]
    assert endpoint.bitstream_measurement == measure(b"bitstream-bytes")
    assert endpoint.identity_frozen
    # both sides derived the same channel key
    assert vendor.channel.key == controller.channel.key
    # device completed before the vendor did
    assert controller.completed_at < vendor.completed_at


def test_post_handshake_attested_channel_works():
    # Each bundle names the other device as the shared session's peer.
    ep1, ep2 = fresh_endpoint(1), fresh_endpoint(2)
    key = bytes(range(64, 96))
    for seed, ep, peer in ((1, ep1, 2), (2, ep2, 1)):
        vendor, controller = make_pair(seed, ep.device, ep)
        run_handshake(vendor, controller,
                      ProvisioningBundle(bitstream=b"b", secrets=[(21, peer, key)]))
    msg = ep1.kernel.attest(21, b"after bootstrap")
    assert ep2.kernel.verify(msg).payload == b"after bootstrap"


def test_bootstrap_provisions_a_log_session_in_the_log_role():
    # The role follows from the id, so a bundle can carry a log session: a
    # frame device 7 attested on it is refused on the wire and verified only
    # by local_verify.
    log, key = log_session(7), bytes(range(96, 128))
    endpoint = fresh_endpoint(1)
    vendor, controller = make_pair(9, 1, endpoint)
    run_handshake(vendor, controller,
                  ProvisioningBundle(bitstream=b"b", secrets=[(log, 7, key)]))
    sender = fresh_endpoint(7)
    sender.provision([(log, 7, key)])
    entry = sender.local_send(log, b"log entry")
    assert endpoint.deliver_frame(encode_frame(entry)) is False
    assert endpoint.rejection_events == [(log, "WrongSessionRole")]
    assert endpoint.local_verify(log, entry) == entry


def _flip(step_name, offset):
    def tamper(step, body):
        if step == step_name:
            out = bytearray(body)
            out[offset] ^= 0x01
            return bytes(out)
        return body
    return tamper


# cert body offsets: digest 0..48, ctrl_pub 48..80, hw_sig 80..144,
# nonce 144..176, ctrl_sig 176..240
def test_tampered_device_signature_rejected():
    endpoint = fresh_endpoint()
    vendor, controller = make_pair(3, 1, endpoint)
    with pytest.raises(BadDeviceSignature):
        run_handshake(vendor, controller, bundle(), tamper=_flip("cert", 80))
    assert endpoint.sessions() == []


def test_tampered_controller_signature_rejected():
    endpoint = fresh_endpoint()
    vendor, controller = make_pair(3, 1, endpoint)
    with pytest.raises(BadControllerSignature):
        run_handshake(vendor, controller, bundle(), tamper=_flip("cert", 176))


def test_tampered_nonce_rejected_as_stale():
    endpoint = fresh_endpoint()
    vendor, controller = make_pair(3, 1, endpoint)
    with pytest.raises(StaleNonce):
        run_handshake(vendor, controller, bundle(), tamper=_flip("cert", 144))


@pytest.mark.parametrize("ctrl_bin", [b"evil firmware", controller_binary(2)],
                         ids=["evil", "another-devices-binary"])
def test_wrong_firmware_measurement_rejected(ctrl_bin):
    # The vendor expects device 1's genuine binary whatever the device runs.
    endpoint = fresh_endpoint()
    vendor, controller = make_pair(3, 1, endpoint, ctrl_bin=ctrl_bin)
    with pytest.raises(MeasurementMismatch):
        run_handshake(vendor, controller, bundle())
    assert endpoint.sessions() == [] and not endpoint.identity_frozen
    assert (controller.completed_at, vendor.completed_at) == (None, None)


def test_attacker_substituted_controller_key_rejected():
    # attacker key has no hardware certificate: device signature check fails
    endpoint = fresh_endpoint()
    vendor, controller = make_pair(3, 1, endpoint)
    attacker = DeviceIdentity(66, random.Random(999))

    def swap_pub(step, body):
        if step == "cert":
            return body[:48] + attacker.ctrl_pub + body[80:]
        return body

    with pytest.raises(BadDeviceSignature):
        run_handshake(vendor, controller, bundle(), tamper=swap_pub)


def test_tampered_bundle_ciphertext_rejected():
    endpoint = fresh_endpoint()
    vendor, controller = make_pair(3, 1, endpoint)
    with pytest.raises(ChannelAuthFailure):
        run_handshake(vendor, controller, bundle(), tamper=_flip("bundle", 20))
    assert endpoint.sessions() == []   # no sessions provisioned


def test_replayed_cert_under_new_nonce_rejected():
    endpoint = fresh_endpoint()
    vendor, controller = make_pair(3, 1, endpoint)
    old_cert = controller.respond(vendor.begin())
    fresh = vendor.begin()              # vendor moves to a new nonce
    assert fresh != old_cert.nonce
    with pytest.raises(StaleNonce):
        vendor.verify_cert(old_cert)


def test_replayed_transcript_rejected_by_fresh_vendor():
    endpoint = fresh_endpoint()
    vendor, controller = make_pair(3, 1, endpoint)
    cert_body = run_handshake(vendor, controller, bundle()).messages[1][1]
    # same device, new vendor session with a fresh nonce stream
    vendor2 = Vendor(controller.identity.ctrl_bin_digest,
                     controller.identity.hw_pub, random.Random(4444))
    vendor2.begin()
    with pytest.raises(StaleNonce):
        vendor2.verify_cert(AttestationCert.decode(cert_body))


def test_reprovisioning_frozen_identity_rejected():
    endpoint = fresh_endpoint()
    vendor, controller = make_pair(3, 1, endpoint)
    run_handshake(vendor, controller, bundle())
    vendor2, controller2 = make_pair(8, 1, fresh_endpoint())
    controller2.endpoint = endpoint
    with pytest.raises(IdentityFrozen):
        run_handshake(vendor2, controller2, bundle())


def test_transcript_contains_no_key_material():
    endpoint = fresh_endpoint()
    vendor, controller = make_pair(13, 1, endpoint)
    b = bundle()
    transcript = run_handshake(vendor, controller, b)
    for _, _, key in b.secrets:
        assert not transcript.contains(key)
    assert not transcript.contains(vendor.channel.key)
    assert not transcript.contains(controller.channel.key)


def test_handshake_transcript_deterministic_for_seed():
    def run(seed):
        endpoint = fresh_endpoint()
        vendor, controller = make_pair(seed, 1, endpoint)
        return run_handshake(vendor, controller, bundle()).raw()

    assert run(21) == run(21)
    assert run(21) != run(22)


def test_bundle_codec_roundtrip():
    b = bundle()
    assert ProvisioningBundle.decode(b.encode()) == b


@pytest.mark.parametrize("key_len", [16, 40])
def test_bundle_encode_rejects_key_of_wrong_length(key_len):
    b = ProvisioningBundle(bitstream=b"bits", secrets=[(11, 2, bytes(key_len))])
    with pytest.raises(HandshakeError, match="32 bytes"):
        b.encode()


@pytest.mark.parametrize("mangle, message", [
    (lambda data: data[:-1], "truncated"),
    (lambda data: data[:30], "truncated"),
    (lambda data: b"", "truncated"),
    (lambda data: data + b"\x00", "trailing bytes"),
], ids=["bitstream-cut", "key-cut", "empty", "trailing-byte"])
def test_bundle_decode_rejects_truncated_or_trailing_bytes(mangle, message):
    with pytest.raises(HandshakeError, match=message):
        ProvisioningBundle.decode(mangle(bundle().encode()))


def test_install_with_repeated_session_installs_nothing():
    endpoint = fresh_endpoint()
    _, controller = make_pair(5, 1, endpoint)
    repeated = ProvisioningBundle(bitstream=b"bits",
                                  secrets=[SECRETS[0], SECRETS[1], SECRETS[0]])
    with pytest.raises(DuplicateSession):
        controller.install(repeated)
    assert endpoint.sessions() == []
    assert not endpoint.identity_frozen
    assert endpoint.bitstream_measurement is None
    controller.install(bundle())
    assert sorted(endpoint.sessions()) == [11, 12]
