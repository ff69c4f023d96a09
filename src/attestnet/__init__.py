"""Attested networking emulator.

A software emulation of a trusted-NIC architecture: an attestation kernel
giving non-equivocation and transferable authentication over an adversarial
simulated network, a remote-attestation bootstrap, four replicated systems
built on the primitive (the BFT counter among them is a crash-tolerant
counter run on the generic CFT-to-BFT wrapper, `transform.Wrapper`), a
bounded exhaustive checker for the transport-security lemmas, and a
benchmark harness with emulated attestation delays.
"""

from .device import DeviceConfig, Endpoint, SimClock, connect
from .errors import AttestnetError
from .kernel import AttestationKernel, AttestedMessage, SessionState
from .simnet import FaultAction, FaultSchedule, NetEvent, Network
from .wire import decode_frame, encode_frame

__all__ = [
    "AttestationKernel",
    "AttestedMessage",
    "AttestnetError",
    "DeviceConfig",
    "Endpoint",
    "FaultAction",
    "FaultSchedule",
    "NetEvent",
    "Network",
    "SessionState",
    "SimClock",
    "connect",
    "decode_frame",
    "encode_frame",
]

__version__ = "0.1.0"
