"""Generic wrapper turning a crash-tolerant protocol into a Byzantine-safe one.

A wrapped node attests each protocol message together with the serialized
state it reaches, as one `local_send` on its log session (`Wrapper.attest`).
A receiver runs two checks on every such frame (`Wrapper.receive`):

  1. `local_verify` on the sender's log session, which the frame's header
     must name, in the sender's log-stream order. The kernel never binds
     two payloads to one (session, counter), so a second, conflicting
     attestation for one step arrives at the wrong counter: every receiver
     shares one view of each sender's stream, and no echo or extra byte is
     needed for it.
  2. re-execution of the message from the state the receiver last accepted
     for the sender (`Wrapper.states`), with the sender's deterministic
     state machine; the state the sender attested must be the serialization
     of the state it reaches, and only then is that state kept.

A failed check is an accusation (`Flag`), never a silent drop, and a
flagged peer is read no more; `Flag` is also chain replication's record.
The wrapper is generic over the state machine through two supplied
functions, apply and serialize (canonical bytes).
`protocols.bft.BftReplica` is a crash-tolerant counter run on it.
"""

from dataclasses import dataclass

from .device import Endpoint, log_session, pack_pair, unpack_pair
from .errors import AuthFailure, CounterMismatch, FrameError, KernelError
from .wire import decode_frame, encode_frame


@dataclass
class Flag:
    accuser: int
    accused: int
    reason: str
    detail: str = ""


class Wrapper:
    """One node's side of the wrapper: its attestations, each peer's state as
    re-executed here, and its accusations, in the order it made them. Keeping
    each peer's state lets a receiver check the state a sender attests
    without replaying the sender's whole history."""

    def __init__(self, endpoint: Endpoint, peers, initial_state, apply_fn, serialize_fn):
        self.endpoint = endpoint
        self.apply_fn = apply_fn
        self.serialize_fn = serialize_fn
        self.states = dict.fromkeys(peers, initial_state)
        self.flags: list[Flag] = []

    def attest(self, app_msg: bytes, state) -> bytes:
        """The frame of one attestation of (message ‖ serialized state)."""
        return encode_frame(self.endpoint.local_send(
            log_session(self.endpoint.device), pack_pair(app_msg, self.serialize_fn(state))))

    def receive(self, sender: int, frame: bytes):
        """Check a frame `sender` attested: (message, state reached), or None
        once the sender is accused. The frame is verified before its payload
        is decoded, so an attested payload that does not decode still uses
        up its counter."""
        try:
            msg = decode_frame(frame)
            self.endpoint.local_verify(log_session(sender), msg)
            app_msg, state = unpack_pair(msg.payload)
        except FrameError:
            self.accuse(sender, "malformed-proof")
        except CounterMismatch as exc:
            self.accuse(sender, "equivocation", str(exc))
        except AuthFailure:
            self.accuse(sender, "forged-attestation")
        except KernelError as exc:
            self.accuse(sender, type(exc).__name__)
        else:
            return self._re_execute(sender, app_msg, state)
        return None

    def _re_execute(self, sender: int, app_msg: bytes, state: bytes):
        """Run the message on the sender's state; keep the state it reaches
        only if the sender attested that state."""
        candidate = self.apply_fn(self.states[sender], app_msg)
        expected = self.serialize_fn(candidate)
        if state != expected:
            self.accuse(sender, "state-mismatch",
                        f"expected {expected.hex()}, got {state.hex()}")
            return None
        self.states[sender] = candidate
        return app_msg, candidate

    def accuse(self, peer: int, reason: str, detail: str = "") -> None:
        self.flags.append(Flag(self.endpoint.device, peer, reason, detail))

    def reads(self, peer: int) -> bool:
        """False once this node has accused the peer: its frames go unread."""
        return all(flag.accused != peer for flag in self.flags)
