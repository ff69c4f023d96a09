"""Bounded exhaustive verification of the transport-security lemmas.

For tiny instances (at most 2 senders, 4 messages each) the checker
crosses every single-point adversarial mutation of the senders' streams with
every interleaving of those streams into one shared receiver kernel, and
evaluates executable analogues of the five security statements:

    attestation   vendor completion implies prior device completion
    transfer_auth every accepted message was previously sent by a genuine kernel
    no_lost       when a message is accepted, everything its sender sent
                  earlier has already been accepted
    no_reorder    per-sender acceptance order equals send order
    no_duplicate  no message is accepted twice

plus the multicast consistency property: two receivers fed the same
locally-attested stream accept prefix-comparable sequences. Only the
transport lemmas search interleavings, because their one receiver could carry
state from one session to another. The two consistency receivers are separate
kernels that each see only their own stream, so each is fed its stream in
order, once per mutation, and the two accepted sequences are compared.

This is bounded model checking of the implementation, not a symbolic proof;
the unbounded claims rest on machine-checked proofs outside this artifact.
Sending and accepting facts are recorded exactly at attest and acceptance
events. The mutated kernels below are test-only variants; the production
kernel is never modified in place. A reported counterexample serializes to a
scenario that, replayed through the simulator with retransmission disabled,
reproduces the violating acceptance pattern exactly.
"""

import random
from dataclasses import dataclass, field

from .bootstrap import make_pair, measure, ProvisioningBundle, run_handshake
from .device import DeviceConfig, Endpoint, SessionConfig, SimClock
from .errors import AuthFailure, CounterMismatch, HandshakeError, InstanceTooLarge, KernelError
from .kernel import (
    AttestationKernel,
    AttestedMessage,
    check_sender,
    compute_tag,
)
from .protocols.common import derive_key
from .simnet import Network
from .wire import decode_frame, encode_frame

MAX_SENDERS = 2
MAX_MESSAGES = 4

TRANSPORT_LEMMAS = ("transfer_auth", "no_lost", "no_reorder", "no_duplicate")
LEMMA_IDS = ("attestation", *TRANSPORT_LEMMAS)
ALL_MUTATIONS = ("none", "drop", "duplicate", "swap", "tamper", "replay", "forge")


# -- test-only kernel mutants ---------------------------------------------------

class FrozenCounterKernel(AttestationKernel):
    """Injected bug: the counter post-increments are skipped on both paths."""

    def attest(self, session: int, payload: bytes) -> AttestedMessage:
        state = self.session_state(session)
        counter = state.send_cnt     # no increment
        tag = compute_tag(state, payload, self.device, counter)
        return AttestedMessage(tag=tag, payload=payload, device=self.device,
                               session=session, counter=counter)

    def verify(self, msg: AttestedMessage, peer: int | None = None) -> AttestedMessage:
        if not self.tag_matches(msg):
            raise AuthFailure("tag mismatch")
        check_sender(msg, peer)
        state = self.session_state(msg.session)
        if msg.counter != state.recv_cnt:
            raise CounterMismatch(expected=state.recv_cnt, got=msg.counter)
        return msg                   # no increment


class GapAcceptingKernel(AttestationKernel):
    """Injected bug: verify accepts any counter at or beyond the expected one."""

    def verify(self, msg: AttestedMessage, peer: int | None = None) -> AttestedMessage:
        if not self.tag_matches(msg):
            raise AuthFailure("tag mismatch")
        check_sender(msg, peer)
        state = self.session_state(msg.session)
        if msg.counter < state.recv_cnt:
            raise CounterMismatch(expected=state.recv_cnt, got=msg.counter)
        state.recv_cnt = msg.counter + 1
        return msg


class PerReceiverCounterKernel(AttestationKernel):
    """Injected bug: multicast keeps an independent send counter per receiver,
    so distinct payloads can carry the same counter to different receivers."""

    def __init__(self, device: int, **kwargs):
        super().__init__(device, **kwargs)
        self._per_receiver: dict[tuple[int, int], int] = {}

    def attest_for(self, receiver: int, session: int, payload: bytes) -> AttestedMessage:
        state = self.session_state(session)
        key = (receiver, session)
        counter = self._per_receiver.get(key, 0)
        self._per_receiver[key] = counter + 1
        tag = compute_tag(state, payload, self.device, counter)
        return AttestedMessage(tag=tag, payload=payload, device=self.device,
                               session=session, counter=counter)


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
    mutations: tuple[str, ...] = ALL_MUTATIONS
    seed: int = 0

    def validate(self) -> None:
        if not 1 <= self.senders <= MAX_SENDERS:
            raise InstanceTooLarge(f"senders must be 1..{MAX_SENDERS}")
        if not 1 <= self.messages_per_sender <= MAX_MESSAGES:
            raise InstanceTooLarge(f"messages must be 1..{MAX_MESSAGES}")
        for m in self.mutations:
            if m not in ALL_MUTATIONS:
                raise InstanceTooLarge(f"unknown mutation {m!r}")


@dataclass
class Counterexample:
    instance: BoundedInstance
    kernel: str
    mutation: str
    delivery_order: list[tuple[int, int]]       # (stream, position in stream)
    acceptance: list[tuple[int, int, bool]]     # (stream, position, accepted)
    detail: str = ""

    def to_dict(self) -> dict:
        return {
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
        return cls(instance=instance, kernel=data["kernel"],
                   mutation=data["mutation"],
                   delivery_order=[tuple(d) for d in data["delivery_order"]],
                   acceptance=[tuple(a) for a in data["acceptance"]],
                   detail=data.get("detail", ""))


@dataclass
class LemmaReport:
    lemma: str
    verdict: str                       # "Holds" | "Counterexample"
    counterexample: Counterexample | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == "Holds"

    def line(self) -> str:
        suffix = "" if self.holds else f" ({self.counterexample.detail})"
        return f"lemma={self.lemma} verdict={self.verdict}{suffix}"


# -- world construction -----------------------------------------------------------

@dataclass
class _Item:
    frame: bytes
    ident: tuple[int, int] | None    # (stream, send index) or None for junk
    label: str


def _build_streams(instance: BoundedInstance, kernel_cls) -> list[list[_Item]]:
    """Genuine per-sender delivery queues, in send order."""
    base: list[list[_Item]] = []
    for s in range(instance.senders):
        session = s + 1
        sender = kernel_cls(device=s + 1)
        sender.provision_session(session, derive_key(instance.seed, session))
        items = []
        for j in range(instance.messages_per_sender):
            payload = bytes([s + 1, j]) + b"msg"
            msg = sender.attest(session, payload)
            items.append(_Item(frame=encode_frame(msg), ident=(s, j),
                               label=f"s{s}m{j}"))
        base.append(items)
    return base


def _mutation_variants(instance: BoundedInstance, base: list[list[_Item]]):
    """Yield (mutation label, streams) for the single-point mutation grid."""
    rng = random.Random(instance.seed ^ 0xFA17)
    if "none" in instance.mutations:
        yield "none", base
    for kind in instance.mutations:
        if kind == "none":
            continue
        for s, items in enumerate(base):
            for j in range(len(items)):
                streams = [list(st) for st in base]
                if kind == "drop":
                    del streams[s][j]
                elif kind == "duplicate":
                    streams[s].insert(j + 1, items[j])
                elif kind == "swap":
                    if j + 1 >= len(items):
                        continue
                    streams[s][j], streams[s][j + 1] = streams[s][j + 1], streams[s][j]
                elif kind == "tamper":
                    mutated = bytearray(items[j].frame)
                    mutated[20] ^= 0x01      # first payload byte
                    streams[s][j] = _Item(frame=bytes(mutated), ident=None,
                                          label=items[j].label + "*")
                elif kind == "replay":
                    streams[s].append(items[j])
                elif kind == "forge":
                    # Same device and session as the stream it joins, so the
                    # receiver reaches the tag check.
                    genuine = decode_frame(items[j].frame)
                    forged = AttestedMessage(tag=rng.randbytes(64),
                                             payload=b"forged",
                                             device=genuine.device,
                                             session=genuine.session,
                                             counter=j + 1)
                    streams[s].insert(j + 1, _Item(frame=encode_frame(forged),
                                                   ident=None, label=f"forge{j}"))
                yield f"{kind}@s{s}m{j}", streams


# -- exhaustive interleaving DFS --------------------------------------------------

class _TransportChecker:
    """DFS over delivery orders with memoized receiver states."""

    def __init__(self, instance: BoundedInstance, kernel_cls, kernel_name: str):
        self.instance = instance
        self.kernel_cls = kernel_cls
        self.kernel_name = kernel_name
        self.counterexamples: dict[str, Counterexample] = {}

    def run(self) -> dict[str, Counterexample]:
        base = _build_streams(self.instance, self.kernel_cls)
        sessions = list(range(1, self.instance.senders + 1))
        for mutation, streams in _mutation_variants(self.instance, base):
            receiver = self.kernel_cls(device=0)   # fresh counters per variant
            for session in sessions:
                receiver.provision_session(session,
                                           derive_key(self.instance.seed, session))
            self._explore(receiver, sessions, streams, mutation)
            if len(self.counterexamples) == len(TRANSPORT_LEMMAS):
                break
        return self.counterexamples

    def _explore(self, receiver, sessions, streams, mutation: str) -> None:
        cursors = [0] * len(streams)
        accepted_counts: dict[tuple[int, int], int] = {}
        max_index: dict[int, int] = {}
        path: list[tuple[int, int]] = []
        acceptance: list[tuple[int, int, bool]] = []
        memo: set = set()

        def state_key():
            counters = tuple(receiver.session_state(s).recv_cnt for s in sessions)
            acc = tuple(sorted(accepted_counts.items()))
            return (tuple(cursors), counters, acc)

        def record(lemma: str, detail: str) -> None:
            if lemma in self.counterexamples:
                return
            self.counterexamples[lemma] = Counterexample(
                instance=self.instance, kernel=self.kernel_name,
                mutation=mutation, delivery_order=list(path),
                acceptance=list(acceptance), detail=detail)

        def on_accept(item: _Item, stream: int) -> None:
            ident = item.ident
            if ident is None:
                record("transfer_auth",
                       f"accepted unsent frame {item.label} under {mutation}")
                return
            s, j = ident
            if accepted_counts.get(ident, 0) >= 1:
                record("no_duplicate",
                       f"message {item.label} accepted twice under {mutation}")
            for k in range(j):
                if accepted_counts.get((s, k), 0) == 0:
                    record("no_lost",
                           f"{item.label} accepted while s{s}m{k} never was "
                           f"under {mutation}")
                    break
            if j < max_index.get(s, -1):
                record("no_reorder",
                       f"{item.label} accepted after a later message under {mutation}")

        def dfs() -> None:
            key = state_key()
            if key in memo:
                return
            for s in range(len(streams)):
                if cursors[s] >= len(streams[s]):
                    continue
                item = streams[s][cursors[s]]
                position = cursors[s]
                cursors[s] += 1
                path.append((s, position))
                snapshot = [receiver.session_state(x).recv_cnt for x in sessions]
                try:
                    receiver.verify(decode_frame(item.frame))
                    ok = True
                except KernelError:
                    ok = False
                acceptance.append((s, position, ok))
                undo_max = dict(max_index)
                if ok:
                    on_accept(item, s)
                    if item.ident is not None:
                        accepted_counts[item.ident] = (
                            accepted_counts.get(item.ident, 0) + 1)
                        ms, mj = item.ident
                        max_index[ms] = max(max_index.get(ms, -1), mj)
                dfs()
                # undo
                if ok and item.ident is not None:
                    accepted_counts[item.ident] -= 1
                    if accepted_counts[item.ident] == 0:
                        del accepted_counts[item.ident]
                max_index.clear()
                max_index.update(undo_max)
                for x, cnt in zip(sessions, snapshot):
                    receiver.session_state(x).recv_cnt = cnt
                acceptance.pop()
                path.pop()
                cursors[s] -= 1
            memo.add(key)

        dfs()


def check_transport_lemmas(instance: BoundedInstance,
                           kernel: str = "correct") -> dict[str, LemmaReport]:
    """All four transport lemmas over the full interleaving/mutation space."""
    instance.validate()
    checker = _TransportChecker(instance, KERNELS[kernel], kernel)
    found = checker.run()
    reports = {}
    for lemma in TRANSPORT_LEMMAS:
        cex = found.get(lemma)
        reports[lemma] = LemmaReport(
            lemma=lemma,
            verdict="Holds" if cex is None else "Counterexample",
            counterexample=cex)
    return reports


# -- attestation lemma (remote-attestation completion ordering) --------------------

def _handshake_scenarios(seed: int):
    """Honest run plus one scenario per single-field corruption class."""
    yield "honest", None, None
    yield "bad-device-signature", ("cert", 80), None          # hw_sig byte
    yield "stale-nonce", ("cert", 144), None                  # nonce byte
    yield "bad-controller-signature", ("cert", 176), None     # ctrl_sig byte
    yield "tampered-bundle", ("bundle", 20), None
    yield "measurement-mismatch", None, b"unexpected-firmware"


def check_attestation_lemma(seed: int = 0) -> LemmaReport:
    """Vendor completion must always be preceded by device completion."""
    for name, flip_spec, evil_bin in _handshake_scenarios(seed):
        endpoint = Endpoint(DeviceConfig(device=42), clock=SimClock())
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

        try:
            result = run_handshake(vendor, controller, bundle, tamper=tamper)
        except HandshakeError:
            result = None
        if result is None:
            # Rejected handshakes complete on neither side: vacuously fine,
            # as long as no completion fact was recorded.
            if vendor.completed_at is not None or controller.completed_at is not None:
                cex = Counterexample(
                    instance=BoundedInstance(seed=seed), kernel="correct",
                    mutation=name, delivery_order=[], acceptance=[],
                    detail=f"completion recorded in rejected handshake {name}")
                return LemmaReport("attestation", "Counterexample", cex)
            continue
        if (result.vendor.completed_at is None
                or result.controller.completed_at is None
                or result.controller.completed_at >= result.vendor.completed_at):
            cex = Counterexample(
                instance=BoundedInstance(seed=seed), kernel="correct",
                mutation=name, delivery_order=[], acceptance=[],
                detail=f"vendor completed without prior device completion in {name}")
            return LemmaReport("attestation", "Counterexample", cex)
    return LemmaReport("attestation", "Holds")


# -- public entry points -------------------------------------------------------------

def check_lemma(instance: BoundedInstance, lemma_id: str,
                kernel: str = "correct") -> LemmaReport:
    if lemma_id == "attestation":
        return check_attestation_lemma(instance.seed)
    if lemma_id not in LEMMA_IDS:
        raise ValueError(f"unknown lemma {lemma_id!r}")
    return check_transport_lemmas(instance, kernel)[lemma_id]


def check_all_lemmas(instance: BoundedInstance,
                     kernel: str = "correct") -> list[LemmaReport]:
    transport = check_transport_lemmas(instance, kernel)
    return [check_attestation_lemma(instance.seed), *transport.values()]


MULTICAST_SESSION = 1
MULTICAST_RECEIVERS = (10, 11)


def _multicast_streams(instance: BoundedInstance, kernel: str) -> list[list[_Item]]:
    """What each of the two receivers gets from one sender (device 1) on
    session 1; a per-receiver-counter sender gives them conflicting payloads."""
    sender = KERNELS[kernel](device=1)
    sender.provision_session(MULTICAST_SESSION,
                             derive_key(instance.seed, MULTICAST_SESSION))
    per_receiver: list[list[_Item]] = [[], []]
    for j in range(instance.messages_per_sender):
        payload = bytes([j]) + b"multicast"
        if kernel == "per-receiver-counter":
            for r, receiver_dev in enumerate(MULTICAST_RECEIVERS):
                evil_payload = payload if r == 0 else bytes([j]) + b"conflicted"
                msg = sender.attest_for(receiver_dev, MULTICAST_SESSION,
                                        evil_payload)
                per_receiver[r].append(_Item(encode_frame(msg), (r, j),
                                             f"r{r}m{j}"))
        else:
            msg = sender.attest(MULTICAST_SESSION, payload)
            item = _Item(encode_frame(msg), (0, j), f"m{j}")
            per_receiver[0].append(item)
            per_receiver[1].append(item)
    return per_receiver


def check_consistency(instance: BoundedInstance,
                      kernel: str = "correct") -> LemmaReport:
    """Two receivers of one locally-attested stream accept prefix-comparable
    payload sequences, under every single mutation.

    Each receiver is its own kernel and sees only its own stream, so what it
    accepts does not depend on how the two deliveries interleave; and
    acceptance only appends, so the two sequences are comparable at every
    point of every interleaving exactly when they are comparable at the end.
    """
    instance.validate()
    key = derive_key(instance.seed, MULTICAST_SESSION)
    per_receiver = _multicast_streams(instance, kernel)
    for mutation, streams in _mutation_variants(instance, per_receiver):
        accepted: list[list[bytes]] = []
        for device, stream in zip(MULTICAST_RECEIVERS, streams):
            receiver = AttestationKernel(device=device)
            receiver.provision_session(MULTICAST_SESSION, key)
            payloads = []
            for item in stream:
                try:
                    payloads.append(receiver.verify(decode_frame(item.frame)).payload)
                except KernelError:
                    pass
            accepted.append(payloads)
        a, b = accepted
        n = min(len(a), len(b))
        if a[:n] != b[:n]:
            return LemmaReport("consistency", "Counterexample", Counterexample(
                instance=instance, kernel=kernel, mutation=mutation,
                delivery_order=[], acceptance=[],
                detail="receiver sequences diverge"))
    return LemmaReport("consistency", "Holds")


def check_leader_strategies() -> LemmaReport:
    """Exhaustive enumeration of one-round leader multicast strategies.

    A proof message claims (round, content). The leader may emit one or two
    attestations with any claims; each of two followers receives any
    subsequence, in emission order (FIFO transport). A follower flags on a
    counter gap or an out-of-order round claim, else applies. The property:
    two followers can never apply different contents for the same round
    unless at least one correct follower flagged the leader.
    """
    session = 1
    key = derive_key(99, session)
    claims = [(1, b"a"), (1, b"b"), (2, b"a"), (2, b"b")]
    emissions = [[c] for c in claims]
    emissions += [[c1, c2] for c1 in claims for c2 in claims]

    for emitted in emissions:
        leader = AttestationKernel(device=1)
        leader.provision_session(session, key)
        frames = []
        for round_id, content in emitted:
            payload = bytes([round_id]) + content
            frames.append(encode_frame(leader.attest(session, payload)))
        subsets = [[]] + [[i] for i in range(len(frames))]
        if len(frames) == 2:
            subsets.append([0, 1])
        for sub_a in subsets:
            for sub_b in subsets:
                applied: list[dict[int, bytes]] = [{}, {}]
                flagged = [False, False]
                for f_idx, sub in enumerate((sub_a, sub_b)):
                    k = AttestationKernel(device=7 + f_idx)
                    k.provision_session(session, key)
                    shadow = 0
                    for i in sub:
                        try:
                            msg = k.verify(decode_frame(frames[i]))
                        except KernelError:
                            flagged[f_idx] = True
                            continue
                        round_id, content = msg.payload[0], msg.payload[1:]
                        if round_id != shadow + 1:
                            flagged[f_idx] = True
                            continue
                        shadow = round_id
                        applied[f_idx][round_id] = content
                common = set(applied[0]) & set(applied[1])
                conflict = any(applied[0][r] != applied[1][r] for r in common)
                if conflict and not any(flagged):
                    cex = Counterexample(
                        instance=BoundedInstance(senders=1,
                                                 messages_per_sender=2),
                        kernel="correct", mutation="leader-strategy",
                        delivery_order=[], acceptance=[],
                        detail=f"conflicting round contents, emitted={emitted},"
                               f" delivery {sub_a}/{sub_b}, no flags")
                    return LemmaReport("bft_equivocation", "Counterexample", cex)
    return LemmaReport("bft_equivocation", "Holds")


# -- counterexample replay -------------------------------------------------------------

def replay_counterexample(cex: Counterexample) -> list[tuple[int, int, bool]]:
    """Re-run a counterexample trace through the simulator.

    Retransmission is disabled so the recorded delivery order is final; the
    returned acceptance pattern must equal the recorded one.
    """
    instance = cex.instance
    kernel_cls = KERNELS[cex.kernel]
    streams = None
    for mutation, candidate in _mutation_variants(
            instance, _build_streams(instance, kernel_cls)):
        if mutation == cex.mutation:
            streams = candidate
            break
    if streams is None:
        raise ValueError(f"mutation {cex.mutation!r} not reproducible")

    sessions = [SessionConfig(s, s, derive_key(instance.seed, s))
                for s in range(1, instance.senders + 1)]
    net = Network(clock=SimClock(), retry_budget=0)
    config = DeviceConfig(device=0, sessions=sessions)
    receiver = Endpoint(config, clock=net.clock, kernel_factory=kernel_cls)
    net.attach(receiver)

    acceptance: list[tuple[int, int, bool]] = []
    for stream, position in cex.delivery_order:
        item = streams[stream][position]
        before = len(net.trace)
        net.submit(stream + 1, 0, stream + 1, item.frame)
        net.run_until_quiescent()
        delivered = net.trace[before:]
        accepted = any(ev.accepted for ev in delivered)
        acceptance.append((stream, position, accepted))
    return acceptance
