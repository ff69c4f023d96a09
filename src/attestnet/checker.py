"""Bounded exhaustive verification of the transport-security lemmas.

For tiny instances (at most 2 senders, 4 messages each) the checker
crosses every single-point adversarial mutation of the senders' streams with
every interleaving of those streams into one shared receiver, and evaluates
executable analogues of the paper's six lemmas:

    attestation   vendor completion implies prior device completion
    transfer_auth every accepted message was previously sent by a genuine kernel
    no_lost       when a message is accepted, everything its sender sent
                  earlier has already been accepted
    no_reorder    per-sender acceptance order equals send order
    no_duplicate  no message is accepted twice

    consistency   two receivers fed the same locally-attested stream
                  accept prefix-comparable sequences (non-equivocation)

`check_all_lemmas` returns one report per lemma, in that order. Only the
transport lemmas search interleavings, because their one receiver could carry
state from one session to another. The two consistency receivers are separate
endpoints that each see only their own stream, so each is fed its stream in
order, once per mutation, and the two accepted sequences are compared.

The adversary is the simulator's: each mutation is one `simnet.FaultAction`
(drop, duplicate, delay, reorder, tamper, replay or forge of one frame), and
`on_wire` runs a stream through a `simnet.Network` to get what a receiver
sees. Every delivery order is replayed from scratch by `deliver`, which hands
the frames to a fresh `Endpoint` through `Endpoint.deliver_frame`, the
production receive path with its peer check; the lemmas are then read off
the acceptance list it returns. A counterexample is one record of one lemma,
and `replay_counterexample` rebuilds its mutation and delivers it the way
its lemma's check did (a consistency one to each receiver apart), so it
reproduces the record's `acceptance` by construction.

This is bounded model checking of the implementation, not a symbolic proof;
the unbounded claims rest on machine-checked proofs outside this artifact.
The mutated kernels below are test-only variants; the production kernel is
never modified in place. Each mutant is the production kernel plus one
overridden step, built around `super().attest` or `super().verify`, so it
keeps every production check outside its one bug.
"""

import functools
import itertools
from dataclasses import dataclass

from .bootstrap import (AEAD_NONCE_LEN, DIGEST_LEN, NONCE_LEN, PUB_LEN, SIG_LEN,
                        ProvisioningBundle, make_pair, measure, run_handshake)
from .device import DeviceConfig, Endpoint
from .errors import HandshakeError, InstanceTooLarge
from .kernel import AttestationKernel, AttestedMessage
from .protocols.bft import KIND_PROOF, BftCluster
from .protocols.common import derive_key, pump, transport_session
from .simnet import ACTION_KINDS, FaultAction, FaultSchedule, Network
from .wire import decode_frame, encode_frame

MAX_SENDERS = 2
MAX_MESSAGES = 4

TRANSPORT_LEMMAS = ("transfer_auth", "no_lost", "no_reorder", "no_duplicate")

# Submissions onto the wire are this far apart, far wider than a frame's
# latency, so an adversary's copy lands right behind its frame.
_SPACING_NS = 1_000_000


# -- test-only kernel mutants ---------------------------------------------------

class FrozenCounterKernel(AttestationKernel):
    """Injected bug: the counter post-increments are undone on both paths."""

    def attest(self, session: int, payload: bytes) -> AttestedMessage:
        msg = super().attest(session, payload)
        self.session_state(session).send_cnt -= 1
        return msg

    def verify(self, msg: AttestedMessage, peer: int | None = None) -> AttestedMessage:
        super().verify(msg, peer)
        self.session_state(msg.session).recv_cnt -= 1
        return msg


class GapAcceptingKernel(AttestationKernel):
    """Injected bug: verify accepts any counter at or beyond the expected one.

    Only a frame the session's peer genuinely attested skips the gap, so a
    frame production rejects leaves the receive counter where it was."""

    def verify(self, msg: AttestedMessage, peer: int | None = None) -> AttestedMessage:
        state = self.session_state(msg.session)
        if (msg.counter > state.recv_cnt and peer in (None, msg.device)
                and self.tag_matches(msg)):
            state.recv_cnt = msg.counter
        return super().verify(msg, peer)


class PerReceiverCounterKernel(AttestationKernel):
    """Injected bug: multicast keeps an independent send counter per receiver,
    so distinct payloads can carry the same counter to different receivers."""

    def __init__(self, device: int, **kwargs):
        super().__init__(device, **kwargs)
        self._per_receiver: dict[tuple[int, int], int] = {}

    def attest_for(self, receiver: int, session: int, payload: bytes) -> AttestedMessage:
        state = self.session_state(session)
        key = (receiver, session)
        state.send_cnt = self._per_receiver.get(key, 0)
        msg = self.attest(session, payload)
        self._per_receiver[key] = state.send_cnt
        return msg


KERNELS = {
    "correct": AttestationKernel,
    "frozen-counter": FrozenCounterKernel,
    "gap-accepting": GapAcceptingKernel,
    "per-receiver-counter": PerReceiverCounterKernel,
}


# -- instances and reports -------------------------------------------------------

@dataclass(frozen=True)
class BoundedInstance:
    senders: int = 2
    messages_per_sender: int = 3
    seed: int = 0

    def validate(self) -> None:
        if not 1 <= self.senders <= MAX_SENDERS:
            raise InstanceTooLarge(f"senders must be 1..{MAX_SENDERS}")
        if not 1 <= self.messages_per_sender <= MAX_MESSAGES:
            raise InstanceTooLarge(f"messages must be 1..{MAX_MESSAGES}")


@dataclass
class Counterexample:
    lemma: str
    instance: BoundedInstance
    kernel: str
    mutation: str
    # A stream is one sender's frames; for consistency, one receiver's.
    delivery_order: list[tuple[int, int]]       # (stream, position in stream)
    acceptance: list[tuple[int, int, bool]]     # (stream, position, accepted)
    detail: str = ""

    def to_dict(self) -> dict:
        """The counterexample as reports show it and files store it."""
        return {
            "lemma": self.lemma,
            "senders": self.instance.senders,
            "messages_per_sender": self.instance.messages_per_sender,
            "seed": self.instance.seed,
            "kernel": self.kernel,
            "mutation": self.mutation,
            "delivery_order": self.delivery_order,
            "acceptance": [list(a) for a in self.acceptance],
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Counterexample":
        instance = BoundedInstance(senders=data["senders"],
                                   messages_per_sender=data["messages_per_sender"],
                                   seed=data.get("seed", 0))
        return cls(lemma=data["lemma"], instance=instance, kernel=data["kernel"],
                   mutation=data["mutation"],
                   delivery_order=[tuple(d) for d in data["delivery_order"]],
                   acceptance=[tuple(a) for a in data["acceptance"]],
                   detail=data.get("detail", ""))


@dataclass
class LemmaReport:
    lemma: str
    counterexample: Counterexample | None = None

    @property
    def holds(self) -> bool:
        return self.counterexample is None

    @property
    def verdict(self) -> str:
        return "Holds" if self.holds else "Counterexample"

    def line(self) -> str:
        suffix = "" if self.holds else f" ({self.counterexample.detail})"
        return f"lemma={self.lemma} verdict={self.verdict}{suffix}"


# -- the adversary and the receiver ----------------------------------------------

def on_wire(frames: list[bytes], action: FaultAction | None) -> list[bytes]:
    """What a receiver gets when `frames` are sent in order under `action`.

    The frames cross a `Network` without retransmission into an endpoint
    that holds no session, so each is rejected once and never sent again;
    the frames that were not dropped are returned in arrival order. Frame j
    is submitted at j * _SPACING_NS: a copy lands right behind its frame, and
    `reorder` lets frame j+1 through ahead of frame j.
    """
    net = Network(retry_budget=0)
    net.attach(Endpoint(DeviceConfig(device=0)))
    net.install_schedule(FaultSchedule(actions=[] if action is None else [action]))
    for j, frame in enumerate(frames):
        net.clock.advance_to(j * _SPACING_NS)
        net.submit(1, 0, 1, frame)   # one stream; the sink never reads its session
    net.run_until_quiescent()
    return [event.frame for event in net.trace if event.disposition != "dropped"]


def _mutations(streams: list[list[bytes]]):
    """Yield (mutation label, streams on the wire): no fault, then one fault
    action of each kind on each frame of each stream. `replay` sends frame j
    again behind the last frame; `delay` moves frame j past the last frame.
    A mutation that puts the same frames on the wire as an earlier one (such
    as reordering the last frame) is skipped: it can break nothing new."""
    yield "none", streams
    seen = {(s, tuple(frames)) for s, frames in enumerate(streams)}
    for kind in ACTION_KINDS:
        for s, frames in enumerate(streams):
            n = len(frames)
            for j in range(n):
                if kind == "replay":
                    action = FaultAction(kind, index=n - 1, earlier_index=j)
                elif kind == "delay":
                    action = FaultAction(kind, index=j, delay_ns=n * _SPACING_NS)
                else:
                    action = FaultAction(kind, index=j)
                wire = on_wire(frames, action)
                if (s, tuple(wire)) in seen:
                    continue
                seen.add((s, tuple(wire)))
                mutated = list(streams)
                mutated[s] = wire
                yield f"{kind}@s{s}m{j}", mutated


def deliver(instance: BoundedInstance, kernel_cls, streams: list[list[bytes]],
            order: list[tuple[int, int]]) -> list[tuple[int, int, bool]]:
    """Hand frames, in the given (stream, position) order, to a fresh
    receiving endpoint on `kernel_cls` through `Endpoint.deliver_frame`, the
    production receive path with its peer check; stream s is session s+1
    from device s+1. Returns (stream, position, accepted) for each frame."""
    receiver = Endpoint(DeviceConfig(device=0), kernel_factory=kernel_cls)
    receiver.provision([(s, s, derive_key(instance.seed, s))
                        for s in range(1, len(streams) + 1)])
    return [(s, p, receiver.deliver_frame(streams[s][p])) for s, p in order]


def _sent_streams(instance: BoundedInstance, kernel_cls) -> list[list[bytes]]:
    """Each sender's genuine frames, in send order."""
    streams = []
    for s in range(instance.senders):
        session = s + 1
        sender = kernel_cls(device=session)
        sender.provision_session(session, derive_key(instance.seed, session))
        streams.append([encode_frame(sender.attest(session, bytes([session, j]) + b"msg"))
                        for j in range(instance.messages_per_sender)])
    return streams


@functools.cache
def _interleavings(lengths: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every delivery order of streams of these lengths, as (stream,
    position) pairs: each merge of the streams, each stream kept in its own
    order, taking stream 0 first wherever there is a choice."""
    def merge(cursors):
        if cursors == lengths:
            yield ()
            return
        for s, position in enumerate(cursors):
            if position < lengths[s]:
                for rest in merge(cursors[:s] + (position + 1,) + cursors[s + 1:]):
                    yield ((s, position), *rest)
    return tuple(merge((0,) * len(lengths)))


def _violations(streams, sent: dict[bytes, tuple[int, int]], acceptance):
    """Yield (lemma, step, detail) for every lemma broken at each step."""
    accepted: set[tuple[int, int]] = set()
    first_missing: dict[int, int] = {}   # per sender: lowest index not accepted
    newest: dict[int, int] = {}          # per sender: highest index accepted
    for step, (s, position, ok) in enumerate(acceptance):
        if not ok:
            continue
        ident = sent.get(streams[s][position])
        if ident is None:
            yield "transfer_auth", step, f"accepted unsent frame s{s}@{position}"
            continue
        src, j = ident
        if ident in accepted:
            yield "no_duplicate", step, f"message s{src}m{j} accepted twice"
        missing = first_missing.get(src, 0)
        if missing < j:
            yield "no_lost", step, f"s{src}m{j} accepted while s{src}m{missing} never was"
        if j < newest.get(src, -1):
            yield "no_reorder", step, f"s{src}m{j} accepted after a later message"
        accepted.add(ident)
        newest[src] = max(newest.get(src, -1), j)
        while (src, missing) in accepted:
            missing += 1
        first_missing[src] = missing


def check_transport_lemmas(instance: BoundedInstance,
                           kernel: str = "correct") -> dict[str, LemmaReport]:
    """All four transport lemmas over the full interleaving/mutation space;
    each lemma reports the first violation in mutation, then delivery order."""
    instance.validate()
    kernel_cls = KERNELS[kernel]
    base = _sent_streams(instance, kernel_cls)
    sent = {frame: (s, j) for s, frames in enumerate(base)
            for j, frame in enumerate(frames)}
    found: dict[str, Counterexample] = {}
    for mutation, streams in _mutations(base):
        for order in _interleavings(tuple(map(len, streams))):
            acceptance = deliver(instance, kernel_cls, streams, order)
            for lemma, step, detail in _violations(streams, sent, acceptance):
                if lemma not in found:
                    found[lemma] = Counterexample(
                        lemma=lemma, instance=instance, kernel=kernel,
                        mutation=mutation,
                        delivery_order=list(order[:step + 1]),
                        acceptance=acceptance[:step + 1],
                        detail=f"{detail} under {mutation}")
        if len(found) == len(TRANSPORT_LEMMAS):
            break
    return {lemma: LemmaReport(lemma, found.get(lemma)) for lemma in TRANSPORT_LEMMAS}


# -- attestation lemma (remote-attestation completion ordering) --------------------

def _handshake_scenarios():
    """Honest run plus one scenario per single-field corruption class."""
    yield "honest", None, None
    hw_sig = DIGEST_LEN + PUB_LEN   # cert = digest ‖ pub ‖ hw_sig ‖ nonce ‖ ctrl_sig
    yield "bad-device-signature", ("cert", hw_sig), None
    yield "stale-nonce", ("cert", hw_sig + SIG_LEN), None
    yield "bad-controller-signature", ("cert", hw_sig + SIG_LEN + NONCE_LEN), None
    yield "tampered-bundle", ("bundle", 20), None
    yield "tampered-ack", ("ack", AEAD_NONCE_LEN), None
    yield "measurement-mismatch", None, b"unexpected-firmware"


def check_attestation_lemma(seed: int = 0) -> LemmaReport:
    """Vendor completion must always be preceded by device completion.

    A rejected handshake never records a vendor completion. It records a
    device completion only when the rejection came at the ack: the device
    completes when it installs the bundle, before it seals the ack, and it
    cannot learn that the ack was corrupted on its way to the vendor. An
    accepted handshake records both, the device's strictly first."""
    for name, flip_spec, evil_bin in _handshake_scenarios():
        endpoint = Endpoint(DeviceConfig(device=42))
        if evil_bin is None:
            vendor, controller = make_pair(seed, 42, endpoint)
        else:
            honest = b"ctrl-bin-v1/%08x" % 42
            vendor, controller = make_pair(seed, 42, endpoint,
                                           ctrl_bin=evil_bin,
                                           expected_digest=measure(honest))
        bundle = ProvisioningBundle(bitstream=b"bitstream",
                                    secrets=[(7, 43, bytes(32))])

        tamper = None
        if flip_spec is not None:
            step_name, offset = flip_spec

            def tamper(step, body, _step=step_name, _off=offset):
                if step == _step:
                    out = bytearray(body)
                    out[_off] ^= 0x01
                    return bytes(out)
                return body

        rejected = False
        try:
            run_handshake(vendor, controller, bundle, tamper=tamper)
        except HandshakeError:
            rejected = True
        device_at, vendor_at = controller.completed_at, vendor.completed_at
        if rejected:
            at_ack = flip_spec is not None and flip_spec[0] == "ack"
            broken = vendor_at is not None or (device_at is not None and not at_ack)
            detail = f"completion recorded in rejected handshake {name}"
        else:
            broken = None in (device_at, vendor_at) or device_at >= vendor_at
            detail = f"vendor completed without prior device completion in {name}"
        if broken:
            return LemmaReport("attestation", Counterexample(
                lemma="attestation", instance=BoundedInstance(seed=seed),
                kernel="correct", mutation=name, delivery_order=[],
                acceptance=[], detail=detail))
    return LemmaReport("attestation")


# -- public entry points -------------------------------------------------------------

def check_all_lemmas(instance: BoundedInstance,
                     kernel: str = "correct") -> list[LemmaReport]:
    """The six lemma reports, in the order `attestnet check` prints them."""
    transport = check_transport_lemmas(instance, kernel)
    return [check_attestation_lemma(instance.seed), *transport.values(),
            check_consistency(instance, kernel)]


MULTICAST_SESSION = 1     # the session `deliver` gives a lone stream
MULTICAST_RECEIVERS = (10, 11)


def _multicast_streams(instance: BoundedInstance, kernel: str) -> list[list[bytes]]:
    """What each of the two receivers gets from one sender (device 1) on
    session 1; a per-receiver-counter sender gives them conflicting payloads."""
    sender = KERNELS[kernel](device=1)
    sender.provision_session(MULTICAST_SESSION,
                             derive_key(instance.seed, MULTICAST_SESSION))
    per_receiver: list[list[bytes]] = [[], []]
    for j in range(instance.messages_per_sender):
        payload = bytes([j]) + b"multicast"
        if kernel == "per-receiver-counter":
            for r, receiver_dev in enumerate(MULTICAST_RECEIVERS):
                evil_payload = payload if r == 0 else bytes([j]) + b"conflicted"
                msg = sender.attest_for(receiver_dev, MULTICAST_SESSION,
                                        evil_payload)
                per_receiver[r].append(encode_frame(msg))
        else:
            frame = encode_frame(sender.attest(MULTICAST_SESSION, payload))
            per_receiver[0].append(frame)
            per_receiver[1].append(frame)
    return per_receiver


def _receive_apart(instance: BoundedInstance,
                   streams: list[list[bytes]]) -> list[tuple[int, int, bool]]:
    """Feed each stream in order to a correct receiving endpoint of its own;
    returns (receiver, position, accepted) for every frame."""
    return [(r, p, ok) for r, stream in enumerate(streams)
            for _, p, ok in deliver(instance, AttestationKernel, [stream],
                                    [(0, p) for p in range(len(stream))])]


def check_consistency(instance: BoundedInstance,
                      kernel: str = "correct") -> LemmaReport:
    """Two receivers of one locally-attested stream accept prefix-comparable
    payload sequences, under every single mutation.

    Each receiver is its own endpoint and sees only its own stream, so what
    it accepts does not depend on how the two deliveries interleave; and
    acceptance only appends, so the two sequences are comparable at every
    point of every interleaving exactly when they are comparable at the end.
    """
    instance.validate()
    for mutation, streams in _mutations(_multicast_streams(instance, kernel)):
        acceptance = _receive_apart(instance, streams)
        a, b = ([decode_frame(streams[r][p]).payload
                 for receiver, p, ok in acceptance if ok and receiver == r]
                for r in (0, 1))
        n = min(len(a), len(b))
        if a[:n] != b[:n]:
            return LemmaReport("consistency", Counterexample(
                lemma="consistency", instance=instance, kernel=kernel,
                mutation=mutation,
                delivery_order=[(r, p) for r, p, _ in acceptance],
                acceptance=acceptance, detail="receiver sequences diverge"))
    return LemmaReport("consistency")


LEADER, FOLLOWERS = 1, (2, 3)


def check_leader_strategies() -> LemmaReport:
    """Exhaustive enumeration of one-round leader multicast strategies,
    checked on the followers production runs.

    A proof claims (round, content). The checker plays the Byzantine leader
    on the real leader's wrapper: it attests one or two (content, round)
    frames with any claims, and each of two real `BftReplica` followers from
    `BftCluster.build` receives any subsequence of them as proofs, in emission order (FIFO transport). The followers then run to
    quiescence, forwarding to each other. What they applied is read off
    their replies, and what they flagged off their wrappers' `flags`. The
    property: two followers never reply with different contents for the same
    round unless one of them flagged the leader.
    """
    claims = [(1, b"a"), (1, b"b"), (2, b"a"), (2, b"b")]
    emissions = [[c] for c in claims]
    emissions += [[c1, c2] for c1 in claims for c2 in claims]
    for emitted in emissions:
        subsets = [[]] + [[i] for i in range(len(emitted))]
        if len(emitted) == 2:
            subsets.append([0, 1])
        for delivery in itertools.product(subsets, repeat=len(FOLLOWERS)):
            cluster = BftCluster.build(n=3, f=1, seed=99)
            leader = cluster.cluster.endpoints[LEADER]
            frames = [cluster.replicas[LEADER].wrapper.attest(content, round_id)
                      for round_id, content in emitted]
            for follower, sub in zip(FOLLOWERS, delivery):
                for i in sub:
                    leader.auth_send(transport_session(LEADER, follower),
                                     bytes([KIND_PROOF]) + frames[i])
            followers = [cluster.replicas[d] for d in FOLLOWERS]
            pump(cluster.cluster.net, followers, cluster.clients)
            contents: dict[bytes, set[bytes]] = {}      # output -> requests
            for req, votes in cluster.clients[0].replies.items():
                for output in votes.values():
                    contents.setdefault(output, set()).add(req)
            conflict = any(len(reqs) > 1 for reqs in contents.values())
            flagged = any(fl.accused == LEADER for f in followers
                          for fl in f.wrapper.flags)
            if conflict and not flagged:
                cex = Counterexample(
                    lemma="bft_equivocation",
                    instance=BoundedInstance(senders=1, messages_per_sender=2),
                    kernel="correct", mutation="leader-strategy",
                    delivery_order=[], acceptance=[],
                    detail=f"conflicting round contents, emitted={emitted},"
                           f" delivery {delivery[0]}/{delivery[1]}, no flags")
                return LemmaReport("bft_equivocation", cex)
    return LemmaReport("bft_equivocation")


# -- counterexample replay -------------------------------------------------------------

def replay_counterexample(cex: Counterexample) -> list[tuple[int, int, bool]]:
    """Rebuild the counterexample's mutated streams and deliver them again,
    giving its `acceptance`: in its delivery order to one receiver, or, for
    consistency, each stream in order to a receiver of its own."""
    kernel_cls = KERNELS[cex.kernel]
    consistency = cex.lemma == "consistency"
    streams = (_multicast_streams(cex.instance, cex.kernel) if consistency
               else _sent_streams(cex.instance, kernel_cls))
    for mutation, mutated in _mutations(streams):
        if mutation == cex.mutation:
            if consistency:
                return _receive_apart(cex.instance, mutated)
            return deliver(cex.instance, kernel_cls, mutated, cex.delivery_order)
    raise ValueError(f"mutation {cex.mutation!r} not reproducible")
