"""Bootstrapping and remote attestation.

Two state machines: the device-side Controller and the remote IP Vendor.
The manufacturer burns a device-unique signing key; firmware loads a
controller binary, generates a controller keypair, and certifies the binary
measurement plus the controller public key under the hardware key. The
vendor challenges with a fresh nonce, checks the certificate chain, and the
two sides derive an authenticated channel (signed ephemeral X25519) over
which the session secrets and bitstream travel encrypted.

Every wire message is recorded into a transcript as a 4-byte big-endian
length (of the type byte plus the body), then 1 type byte, then the body.
Message types:

    0x01 NONCE        nonce(32)
    0x02 CERT         digest(48) ctrl_pub(32) hw_sig(64) nonce(32) ctrl_sig(64)
    0x03 VENDOR_KEX   eph_pub(32) sig(64)
    0x04 CTRL_KEX     eph_pub(32) sig(64)
    0x05 BUNDLE       aead_nonce(12) ciphertext(...)
    0x06 ACK          aead_nonce(12) ciphertext(measurement echo)

Secrecy contract: no session-key or channel-key bytes ever appear in a
transcript; the acceptance suite scans for both raw and hex encodings.
"""

import hashlib
import random
import struct
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .device import Endpoint, pack_pair, unpack_pair
from .errors import (
    BadControllerSignature,
    BadDeviceSignature,
    ChannelAuthFailure,
    FrameError,
    HandshakeError,
    IdentityFrozen,
    MeasurementMismatch,
    StaleNonce,
)
from .kernel import KEY_LEN

NONCE_LEN = 32
DIGEST_LEN = 48
SIG_LEN = 64
PUB_LEN = 32
AEAD_NONCE_LEN = 12

MSG_NONCE = 0x01
MSG_CERT = 0x02
MSG_VENDOR_KEX = 0x03
MSG_CTRL_KEX = 0x04
MSG_BUNDLE = 0x05
MSG_ACK = 0x06

_KEX_VENDOR_CONTEXT = b"vendor-kex-v1"
_KEX_CTRL_CONTEXT = b"ctrl-kex-v1"
_CHANNEL_CONTEXT = b"provision-channel-v1"

_CERT = struct.Struct(f">{DIGEST_LEN}s{PUB_LEN}s{SIG_LEN}s{NONCE_LEN}s{SIG_LEN}s")
_SECRET = struct.Struct(f">II{KEY_LEN}s")      # session ‖ peer device ‖ key


def measure(blob: bytes) -> bytes:
    """48-byte measurement of a binary or bitstream."""
    return hashlib.sha384(blob).digest()


def controller_binary(device: int) -> bytes:
    """The genuine controller binary of a device: the one the vendor expects."""
    return b"ctrl-bin-v1/%08x" % device


def _ed25519_from_rng(rng: random.Random) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(rng.randbytes(32))


def _x25519_from_rng(rng: random.Random) -> X25519PrivateKey:
    return X25519PrivateKey.from_private_bytes(rng.randbytes(32))


def _pub_bytes(key) -> bytes:
    from cryptography.hazmat.primitives.serialization import (
        Encoding,
        PublicFormat,
    )

    return key.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)


class DeviceIdentity:
    """Burned-in and firmware-generated key material of one device.

    The hardware key never leaves this object; only its public half is
    exported for the vendor's manufacturer registry.
    """

    def __init__(self, device: int, rng: random.Random, ctrl_bin: bytes | None = None):
        self._hw_key = _ed25519_from_rng(rng)
        self.hw_pub = _pub_bytes(self._hw_key)
        self.ctrl_bin_digest = measure(
            controller_binary(device) if ctrl_bin is None else ctrl_bin)
        self._ctrl_priv = _ed25519_from_rng(rng)
        self.ctrl_pub = _pub_bytes(self._ctrl_priv)
        # Hardware-key certificate over (binary measurement ‖ controller pub).
        self.ctrl_bin_cert = self._hw_key.sign(self.ctrl_bin_digest + self.ctrl_pub)

    def sign_with_ctrl(self, data: bytes) -> bytes:
        return self._ctrl_priv.sign(data)


@dataclass(frozen=True)
class AttestationCert:
    """Controller's answer to a vendor challenge."""

    digest: bytes
    ctrl_pub: bytes
    hw_sig: bytes
    nonce: bytes
    ctrl_sig: bytes

    def encode(self) -> bytes:
        return _CERT.pack(self.digest, self.ctrl_pub, self.hw_sig, self.nonce,
                          self.ctrl_sig)

    @classmethod
    def decode(cls, body: bytes) -> "AttestationCert":
        if len(body) != _CERT.size:
            raise HandshakeError(f"attestation cert must be {_CERT.size} bytes")
        return cls(*_CERT.unpack(body))


@dataclass
class ProvisioningBundle:
    """Secrets and bitstream delivered only inside the authenticated channel."""

    bitstream: bytes
    secrets: list[tuple[int, int, bytes]]  # (session, peer device, 32-byte key)

    def encode(self) -> bytes:
        """count ‖ (session ‖ peer ‖ key) per secret ‖ bitstream, a
        length-prefixed record."""
        parts = [len(self.secrets).to_bytes(4, "big")]
        for session, peer, key in self.secrets:
            if len(key) != KEY_LEN:
                raise HandshakeError(f"session {session} key must be {KEY_LEN} bytes")
            parts.append(_SECRET.pack(session, peer, key))
        parts.append(pack_pair(self.bitstream, b""))
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "ProvisioningBundle":
        """Inverse of encode; truncated or trailing bytes are rejected."""
        # Data under 4 bytes reads as a smaller count, and still ends short.
        end = 4 + _SECRET.size * int.from_bytes(data[:4], "big")
        if len(data) < end:
            raise HandshakeError("provisioning bundle truncated")
        try:
            bitstream, trailing = unpack_pair(data[end:])
        except FrameError:
            raise HandshakeError("provisioning bundle truncated") from None
        if trailing:
            raise HandshakeError("trailing bytes after provisioning bundle")
        secrets = list(_SECRET.iter_unpack(data[4:end]))
        return cls(bitstream=bitstream, secrets=secrets)


class Transcript:
    """Ordered capture of every byte that crossed the simulated wire."""

    def __init__(self):
        self.messages: list[tuple[int, bytes]] = []

    def record(self, msg_type: int, body: bytes) -> None:
        self.messages.append((msg_type, body))

    def raw(self) -> bytes:
        return b"".join(pack_pair(bytes([msg_type]) + body, b"")
                        for msg_type, body in self.messages)

    def contains(self, needle: bytes) -> bool:
        blob = self.raw()
        return needle in blob or needle.hex().encode() in blob


def _derive_channel_key(shared: bytes, vendor_eph: bytes, ctrl_eph: bytes,
                        nonce: bytes) -> bytes:
    material = _CHANNEL_CONTEXT + shared + vendor_eph + ctrl_eph + nonce
    return hashlib.sha384(material).digest()[:32]


class SecureChannel:
    """AEAD channel bound to the handshake; one nonce counter per direction."""

    def __init__(self, key: bytes, sender_id: int):
        self.key = key
        self._aead = AESGCM(key)
        self._send_seq = 0
        self._sender_id = sender_id

    def _nonce(self, seq: int) -> bytes:
        return bytes([self._sender_id]) + seq.to_bytes(AEAD_NONCE_LEN - 1, "big")

    def seal(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        nonce = self._nonce(self._send_seq)
        self._send_seq += 1
        return nonce + self._aead.encrypt(nonce, plaintext, aad)

    def open(self, blob: bytes, aad: bytes = b"") -> bytes:
        nonce, ct = blob[:AEAD_NONCE_LEN], blob[AEAD_NONCE_LEN:]
        try:
            return self._aead.decrypt(nonce, ct, aad)
        except InvalidTag:
            raise ChannelAuthFailure("provisioning ciphertext rejected") from None


class Vendor:
    """Remote IP-vendor state machine."""

    def __init__(self, expected_digest: bytes, manufacturer_pub: bytes,
                 rng: random.Random):
        self.expected_digest = expected_digest
        self._manufacturer_pub = Ed25519PublicKey.from_public_bytes(manufacturer_pub)
        self._rng = rng
        self._identity = _ed25519_from_rng(rng)
        self.identity_pub = _pub_bytes(self._identity)
        self.nonce: bytes | None = None
        self._ctrl_pub: Ed25519PublicKey | None = None
        self._eph: X25519PrivateKey | None = None
        self.channel: SecureChannel | None = None
        self.completed_at: int | None = None

    def begin(self) -> bytes:
        """Fresh 32-byte challenge nonce from the seeded generator."""
        self.nonce = self._rng.randbytes(NONCE_LEN)
        return self.nonce

    def verify_cert(self, cert: AttestationCert) -> None:
        """Steps (4)-(5): device genuineness, measurement, freshness, controller sig.

        Each check maps to exactly one error class so tampering tests can
        assert which defense fired.
        """
        if self.nonce is None:
            raise HandshakeError("verify before begin()")
        try:
            self._manufacturer_pub.verify(cert.hw_sig, cert.digest + cert.ctrl_pub)
        except InvalidSignature:
            raise BadDeviceSignature("hardware certificate invalid") from None
        if cert.digest != self.expected_digest:
            raise MeasurementMismatch("controller binary digest unexpected")
        if cert.nonce != self.nonce:
            raise StaleNonce("certificate does not carry the fresh nonce")
        ctrl_pub = Ed25519PublicKey.from_public_bytes(cert.ctrl_pub)
        try:
            ctrl_pub.verify(cert.ctrl_sig, cert.digest + cert.hw_sig + cert.nonce)
        except InvalidSignature:
            raise BadControllerSignature("controller signature invalid") from None
        self._ctrl_pub = ctrl_pub

    def kex_offer(self) -> bytes:
        self._eph = _x25519_from_rng(self._rng)
        eph_pub = _pub_bytes(self._eph)
        sig = self._identity.sign(_KEX_VENDOR_CONTEXT + eph_pub + self.nonce)
        return eph_pub + sig

    def kex_finish(self, ctrl_kex: bytes) -> SecureChannel:
        eph_pub, sig = ctrl_kex[:PUB_LEN], ctrl_kex[PUB_LEN:]
        try:
            self._ctrl_pub.verify(sig, _KEX_CTRL_CONTEXT + eph_pub + self.nonce)
        except InvalidSignature:
            raise BadControllerSignature("controller key-exchange signature invalid") from None
        shared = self._eph.exchange(X25519PublicKey.from_public_bytes(eph_pub))
        key = _derive_channel_key(shared, _pub_bytes(self._eph), eph_pub, self.nonce)
        # Direction byte 0x0A; the controller seals under 0x0B, so the two
        # directions never share an AEAD nonce.
        self.channel = SecureChannel(key, sender_id=0x0A)
        return self.channel


class Controller:
    """Device-side state machine; owns the identity and the endpoint to provision."""

    def __init__(self, identity: DeviceIdentity, endpoint: Endpoint,
                 vendor_pub: bytes, rng: random.Random):
        self.identity = identity
        self.endpoint = endpoint
        # The vendor verification key ships embedded in the controller binary.
        self._vendor_pub = Ed25519PublicKey.from_public_bytes(vendor_pub)
        self._rng = rng
        self._nonce: bytes | None = None
        self._eph: X25519PrivateKey | None = None
        self.channel: SecureChannel | None = None
        self.completed_at: int | None = None

    def respond(self, nonce: bytes) -> AttestationCert:
        """Certificate over (binary cert, nonce); deterministic given identity+nonce."""
        self._nonce = nonce
        ident = self.identity
        ctrl_sig = ident.sign_with_ctrl(ident.ctrl_bin_digest + ident.ctrl_bin_cert + nonce)
        return AttestationCert(
            digest=ident.ctrl_bin_digest,
            ctrl_pub=ident.ctrl_pub,
            hw_sig=ident.ctrl_bin_cert,
            nonce=nonce,
            ctrl_sig=ctrl_sig,
        )

    def kex_answer(self, vendor_kex: bytes) -> bytes:
        eph_pub, sig = vendor_kex[:PUB_LEN], vendor_kex[PUB_LEN:]
        try:
            self._vendor_pub.verify(sig, _KEX_VENDOR_CONTEXT + eph_pub + self._nonce)
        except InvalidSignature:
            raise HandshakeError("vendor key-exchange signature invalid") from None
        self._eph = _x25519_from_rng(self._rng)
        my_pub = _pub_bytes(self._eph)
        shared = self._eph.exchange(X25519PublicKey.from_public_bytes(eph_pub))
        key = _derive_channel_key(shared, eph_pub, my_pub, self._nonce)
        self.channel = SecureChannel(key, sender_id=0x0B)
        ctrl_sig = self.identity.sign_with_ctrl(_KEX_CTRL_CONTEXT + my_pub + self._nonce)
        return my_pub + ctrl_sig

    def install(self, bundle: ProvisioningBundle) -> bytes:
        """Install the bundle's sessions through `Endpoint.provision`, which
        leaves the device as it was if it refuses them, and record the
        bitstream measurement."""
        if self.endpoint.identity_frozen:
            raise IdentityFrozen("device already provisioned")
        self.endpoint.provision(bundle.secrets)
        measurement = measure(bundle.bitstream)
        self.endpoint.bitstream_measurement = measurement
        self.endpoint.identity_frozen = True
        return measurement


def run_handshake(vendor: Vendor, controller: Controller,
                  bundle: ProvisioningBundle, tamper=None) -> Transcript:
    """Drive the full exchange and return the record of every wire message.

    `tamper(step, body) -> body` lets tests corrupt individual messages; each
    corruption must map to its specific rejection. The vendor only records
    completion after the controller's encrypted acknowledgment: the executable
    reading of "vendor finished implies device finished earlier".
    """
    transcript = Transcript()

    def wire(step: str, msg_type: int, body: bytes) -> bytes:
        if tamper is not None:
            body = tamper(step, body)
        transcript.record(msg_type, body)
        return body

    nonce = wire("nonce", MSG_NONCE, vendor.begin())

    cert_body = wire("cert", MSG_CERT, controller.respond(nonce).encode())
    vendor.verify_cert(AttestationCert.decode(cert_body))

    vendor_kex = wire("vendor_kex", MSG_VENDOR_KEX, vendor.kex_offer())
    ctrl_kex = wire("ctrl_kex", MSG_CTRL_KEX, controller.kex_answer(vendor_kex))
    vendor.kex_finish(ctrl_kex)

    sealed = wire("bundle", MSG_BUNDLE, vendor.channel.seal(bundle.encode(), aad=b"provision"))
    plain = controller.channel.open(sealed, aad=b"provision")
    measurement = controller.install(ProvisioningBundle.decode(plain))
    controller.completed_at = len(transcript.messages)

    ack = wire("ack", MSG_ACK, controller.channel.seal(measurement, aad=b"ack"))
    echoed = vendor.channel.open(ack, aad=b"ack")
    if echoed != measure(bundle.bitstream):
        raise HandshakeError("bitstream measurement echo mismatch")
    vendor.completed_at = len(transcript.messages)

    return transcript


def make_pair(seed: int, device: int, endpoint: Endpoint,
              ctrl_bin: bytes | None = None) -> tuple[Vendor, Controller]:
    """Build a vendor/controller pair from one seed (tests and the demo CLI).
    The vendor expects the genuine binary, so any other `ctrl_bin` the device
    runs is refused with MeasurementMismatch."""
    rng_device = random.Random(seed)
    rng_vendor = random.Random(seed ^ 0x5EED)
    identity = DeviceIdentity(device, rng_device, ctrl_bin=ctrl_bin)
    vendor = Vendor(measure(controller_binary(device)), identity.hw_pub, rng_vendor)
    controller = Controller(identity, endpoint, vendor.identity_pub, rng_device)
    return vendor, controller
