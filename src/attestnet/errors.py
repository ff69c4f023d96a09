"""Exception taxonomy for the attested-networking emulator.

Every rejection path raises (or records) a distinct class so adversarial
tests can assert exactly which defense fired.
"""


class AttestnetError(Exception):
    """Base class for all library errors."""


# --- attestation kernel -----------------------------------------------------

class KernelError(AttestnetError):
    """Base class for attestation-kernel rejections."""


class UnknownSession(KernelError):
    """Session id is not provisioned in the keystore."""


class WrongSessionRole(KernelError):
    """A network frame names a log session; or local_verify is asked for a
    transport session, or for a frame whose header names another session."""


class DuplicateSession(KernelError):
    """Session id already provisioned on this device."""


class PayloadTooLarge(KernelError):
    """Payload exceeds `kernel.MAX_PAYLOAD`."""


class AuthFailure(KernelError):
    """Recomputed tag does not match the received tag (tampering or wrong key)."""


class WrongSender(KernelError):
    """Valid tag, but attested by a device other than the session's peer."""


class CounterMismatch(KernelError):
    """Message counter is not the expected receive counter (replay, gap, reorder)."""

    def __init__(self, expected: int, got: int):
        super().__init__(f"expected counter {expected}, got {got}")
        self.expected = expected
        self.got = got


class CounterOverflow(KernelError):
    """A 64-bit session counter would wrap; hard error, never modular."""


# --- wire / transport -------------------------------------------------------

class FrameError(AttestnetError):
    """Byte sequence is not a well-formed wire frame."""


class TransportClosed(AttestnetError):
    """Transport cannot accept further submissions."""


class UnknownPeer(AttestnetError):
    """Destination device is not reachable through the network handle."""


# --- remote attestation -----------------------------------------------------

class HandshakeError(AttestnetError):
    """Base class for remote-attestation failures."""


class BadDeviceSignature(HandshakeError):
    """Hardware-key certificate over the controller binary does not verify."""


class MeasurementMismatch(HandshakeError):
    """Controller binary digest differs from the vendor's expected digest."""


class StaleNonce(HandshakeError):
    """Attestation certificate does not carry the vendor's fresh nonce."""


class BadControllerSignature(HandshakeError):
    """Controller signature over (cert, nonce) does not verify."""


class ChannelAuthFailure(HandshakeError):
    """Provisioning ciphertext failed authenticated decryption."""


class IdentityFrozen(HandshakeError):
    """Device already provisioned; re-provisioning is rejected."""


# --- protocols ----------------------------------------------------------------

class OutOfRange(AttestnetError):
    """Log index outside the retained window, or a checkpoint outside it."""


class ChainValidationFailure(AttestnetError):
    """A chain proof does not validate; the message is the accusing flag's reason."""


# --- checker ------------------------------------------------------------------

class InstanceTooLarge(AttestnetError):
    """Bounded instance exceeds the exhaustively checkable limits."""
