"""Scenario files: topology, roles, workload, faults, and the run artifacts.

A scenario is a JSON object:

    {
      "protocol": "bft" | "cr" | "peerreview" | "raw-channel" | "a2m",
      "seed": 0,
      "rounds": 5,
      "n": 3, "f": 1,                          # bft, cr
      "children": 2,                           # peerreview
      "attest_delay_ns": 0,                    # simulated cost of each attest
      "batch": 1, "payload": 64,               # optional round bodies
      "attack": {"kind": "...", ...},          # optional
      "faults": {"seed": 0, "actions": [...]}  # optional, not a2m: wire faults
    }

A name the protocol or its attack kind does not take is bad input. Every
field but "protocol" and the kinds is an integer. "rounds", "children",
"batch" and an attack's "round" and "commit" are at least 1; "attest_delay_ns",
"payload", an attack's "after_round" and a fault action's "index",
"delay_ns", "earlier_index", "bit_offset", "session" and "sender" at least 0,
as a smaller value never fires or sends a frame back in time. An action's
"session", "sender" and "index" may also be null, which matches any value.

Device ids run from 0 to 255, and the PeerReview root is device 1, so
"children" is at most 254. The root logs, each round, one entry of the
frames it sent all children, and an entry is a kernel payload of at most
64 KiB: 238 children fit without "payload", fewer with it. A CR proof nests
one level per node, so "n" and "payload" share its 64 KiB too. A spec past
these bounds is bad input. A round body is sized before any is built, so
a "batch" of "payload"s too large for the kernel is refused unallocated.

Round r submits one body: without "payload", the protocol's own (an empty
BFT request, a CR put of b"v<17r>" at b"k<r>", b"cmd-<r>", b"rec-<r>"); with
it, `pack_batch` of "batch" records of `randbytes(payload)` from
`Random(seed)`, which CR puts at the key b"k%08d" % (r % 128).

Attack kinds per protocol and the fields each takes (any other kind is
rejected as bad input, and the default kind "none" takes no field; wire
faults such as replay, reorder or drop go in "faults"):
    bft:        equivocate {round}, wrong_value {round}, crash {node, after_round}
    cr:         lie {position, commit}
    peerreview: mutate_result {node, round}, rewrite_log {node, seq}
    raw-channel and a2m take none.

Run artifacts are JSON-serializable dicts: accepted values, flags,
diagnostics, and verdicts. Each runner reports an `Outcome`, and `judge`
decides the final line's "ok"; its docstring says what a safe run is. The
final line of a protocol that sends frames counts those whose retry budget
ran out ("exhausted").

A result also holds each round's simulated latency and the elapsed
simulated time, read before any audit or verdict runs, and the stalled
rounds: those whose client 0 (PeerReview's root, the raw channel's receiver)
accepted nothing.
"""

import json
import random
from dataclasses import dataclass, field

from .device import pack_batch
from .errors import PayloadTooLarge
from .kernel import MAX_PAYLOAD
from .protocols.a2m import A2mStore
from .protocols.bft import (
    BftCluster,
    BftReplica,
    EquivocatingLeader,
    WrongValueLeader,
    counter_state,
)
from .protocols.chain import ChainCluster, LyingMiddle
from .protocols.common import build_cluster, derive_key, log_session, transport_session
from .protocols.peerreview import MutatingChild, PrScenario, rewrite_log_entry
from .simnet import FaultAction, FaultSchedule, Network


@dataclass
class ScenarioResult:
    ok: bool
    lines: list[dict]
    latencies_ns: list[int]     # simulated, per round
    elapsed_ns: int             # simulated, all rounds
    stalled: list[int]          # rounds, see above

    def dumps(self) -> str:
        return "\n".join(json.dumps(line, sort_keys=True) for line in self.lines)


@dataclass
class Outcome:
    """What `judge` reads of one run. Nodes are device ids. The raw channel's
    and A2M's whole sequence of bodies is one value."""
    pairs: list[tuple]                          # (expected, accepted or None)
    accused: set = field(default_factory=set)
    deviated: set = field(default_factory=set)
    masked: set = field(default_factory=set)    # deviations the quorum outvoted
    diverged: bool = False                      # replicas' histories differ
    exhausted: int = 0

    def agreement(self) -> bool:
        return all(accepted in (None, expected) for expected, accepted in self.pairs)


def judge(outcome: Outcome) -> bool:
    """The one verdict: a run is ok when it is safe and lost no frame. No
    client accepted a wrong value. Each deviation was detected (its node
    accused) or masked (outvoted by f+1 where no node checks it: a CR tail).
    No honest node was accused: an attack that never deviated (its round or
    commit never came, or a leader had no follower) is an honest run.
    Replicas diverged only if something deviated. No frame was exhausted."""
    o = outcome
    return (o.agreement() and o.deviated <= o.accused | o.masked
            and o.accused <= o.deviated and (bool(o.deviated) or not o.diverged)
            and not o.exhausted)


def load_scenario(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: a scenario is a JSON object")
    return spec


# Each protocol's attack kinds and the fields each takes besides "kind".
ATTACK_KINDS = {"bft": {"equivocate": ("round",), "wrong_value": ("round",),
                        "crash": ("node", "after_round")},
                "cr": {"lie": ("position", "commit")},
                "peerreview": {"mutate_result": ("node", "round"),
                               "rewrite_log": ("node", "seq")}}
_COMMON_FIELDS = ("protocol", "seed", "rounds", "attest_delay_ns", "batch", "payload",
                  "attack")
# Each protocol's spec fields; A2M sends no frame, so it takes no "faults".
SPEC_FIELDS = {"bft": _COMMON_FIELDS + ("n", "f", "faults"),
               "cr": _COMMON_FIELDS + ("n", "f", "faults"),
               "peerreview": _COMMON_FIELDS + ("children", "faults"),
               "raw-channel": _COMMON_FIELDS + ("faults",), "a2m": _COMMON_FIELDS}
WILDCARD_FIELDS = ("session", "sender", "index")   # of a fault action; null matches any
# The least value of each integer field that has one; the spec's fields, a
# fault action's and an attack's share no name.
MINIMUMS = {"rounds": 1, "children": 1, "batch": 1, "attest_delay_ns": 0, "payload": 0,
            "index": 0, "delay_ns": 0, "earlier_index": 0, "bit_offset": 0, "session": 0,
            "sender": 0, "round": 1, "commit": 1, "after_round": 0}


def _require_int(where: str, name: str, value) -> None:
    # bool is an int subclass, but `"rounds": true` is a typo, not a count.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f'{where}"{name}" must be an integer, got {value!r}')
    if name in MINIMUMS and value < MINIMUMS[name]:
        raise ValueError(f'{where}"{name}" must be >= {MINIMUMS[name]}, got {value}')


def _require_object(what: str, value) -> None:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {value!r}")


def _require_known(where: str, value: dict, names: tuple) -> None:
    for name in value:
        if name not in names:
            raise ValueError(f'unknown {where}field "{name}"')


def run_scenario(spec: dict) -> ScenarioResult:
    """Run a scenario and judge it. Input that is not a valid scenario, such
    as a field of the wrong JSON type, a topology no protocol builds, or a
    body too large for the kernel, raises ValueError."""
    protocol = spec.get("protocol", "bft")
    if not isinstance(protocol, str) or protocol not in _RUNNERS:
        raise ValueError(f"unknown protocol {protocol!r}")
    attack = spec.get("attack", {})
    _require_object('"attack"', attack)
    kind = attack.get("kind", "none")
    fields = ATTACK_KINDS.get(protocol, {}).get(kind) if isinstance(kind, str) else None
    if kind != "none" and fields is None:
        raise ValueError(f"unknown {protocol} attack kind {kind!r}")
    _require_known(f"{protocol} ", spec, SPEC_FIELDS[protocol])
    _require_known(f"{kind!r} attack ", attack, ("kind", *(fields or ())))
    for name, value in spec.items():
        if name not in ("protocol", "attack", "faults"):
            _require_int("", name, value)
    for name, value in attack.items():
        if name != "kind":
            _require_int("attack ", name, value)
    try:
        outcome, lines, timing = _RUNNERS[protocol](spec, attack, kind)
    except PayloadTooLarge as exc:
        topology = {"cr": ' or "n"', "peerreview": ' or "children"'}.get(protocol, "")
        raise ValueError(f'"payload"{topology} too large: {exc} bytes') from None
    ok = lines[-1]["ok"] = judge(outcome)
    return ScenarioResult(ok, lines, *timing)


def _run_rounds(spec: dict, clock, submit, default_rounds: int):
    """The one round loop: `submit(r, body)` runs round r (body None: the
    protocol's own) and returns False if its client accepted nothing. Returns
    ScenarioResult's simulated latencies, elapsed time and stalled rounds."""
    rng = random.Random(spec.get("seed", 0))
    payload, batch = spec.get("payload"), spec.get("batch", 1)
    # pack_batch's count and each record's length take 4 bytes.
    size = 0 if payload is None else 4 + batch * (4 + payload)
    if size > MAX_PAYLOAD:
        raise PayloadTooLarge(f"{size} > {MAX_PAYLOAD}")
    latencies, stalled = [], []
    start = clock.now_ns
    for round_id in range(1, spec.get("rounds", default_rounds) + 1):
        body = None if payload is None else pack_batch(
            [rng.randbytes(payload) for _ in range(batch)])
        t0 = clock.now_ns
        if not submit(round_id, body):
            stalled.append(round_id)
        latencies.append(clock.now_ns - t0)
    return latencies, clock.now_ns - start, stalled


def _install_faults(spec: dict, net: Network) -> None:
    """Install the spec's wire-fault schedule on net, if it has one."""
    faults = spec.get("faults")
    if faults is None:
        return
    _require_object('"faults"', faults)
    _require_known("faults ", faults, ("seed", "actions"))
    seed = faults.get("seed", spec.get("seed", 0))
    _require_int("faults ", "seed", seed)
    actions = faults.get("actions", [])
    if not isinstance(actions, list):
        raise ValueError(f'faults "actions" must be a list, got {actions!r}')
    for action in actions:
        _require_object("a fault action", action)
        if "frame" in action:
            raise ValueError('fault action "frame" is not allowed: a spec '
                             "holds no frame bytes")
        for name, value in action.items():
            if name != "kind" and not (value is None and name in WILDCARD_FIELDS):
                _require_int("fault action ", name, value)
    try:
        actions = [FaultAction(**a) for a in actions]
    except TypeError as exc:
        raise ValueError(f"bad fault action: {exc}") from None
    net.install_schedule(FaultSchedule(seed=seed, actions=actions))


def _run_bft(spec: dict, attack: dict, kind: str):
    n, f = spec.get("n", 3), spec.get("f", 1)
    leader_cls, leader_kwargs = {
        "equivocate": (EquivocatingLeader, {"equivocate_round": attack.get("round", 1)}),
        "wrong_value": (WrongValueLeader, {"lie_round": attack.get("round", 1)}),
    }.get(kind, (BftReplica, {}))
    cluster = BftCluster.build(n=n, f=f, seed=spec.get("seed", 0),
                               leader_cls=leader_cls, leader_kwargs=leader_kwargs,
                               clients=2,
                               attest_delay_ns=spec.get("attest_delay_ns", 0))
    crash = attack if kind == "crash" else None
    if crash and crash.get("node", n) not in cluster.replicas:
        raise ValueError(f"crash node {crash.get('node', n)!r} is not a replica")
    _install_faults(spec, cluster.cluster.net)

    # The leader executes the requests in round order, and none once it has
    # crashed, so the only value a client may accept for round r is r.
    pairs, lines = [], []

    def submit(round_id: int, body: bytes | None) -> bool:
        if crash and round_id == crash.get("after_round", 1) + 1:
            cluster.replicas[crash.get("node", n)].crashed = True
        req = cluster.run_request(0, round_id, b"" if body is None else body)
        values = {c.client_id: c.observed.get(req) for c in cluster.clients}
        pairs.extend((counter_state(round_id), v) for v in values.values())
        lines.append({"round": round_id, "accepted": {
            str(k): (v.hex() if v else None) for k, v in values.items()}})
        return cluster.clients[0].accepted_value(req) is not None
    timing = _run_rounds(spec, cluster.cluster.net.clock, submit, 5)

    flags = cluster.all_flags()
    outcome = Outcome(pairs, accused={fl.accused for fl in flags},
                      deviated={d for d, r in cluster.replicas.items() if r.deviated},
                      exhausted=len(cluster.cluster.net.exhausted))
    lines.append({
        "protocol": "bft", "agreement": outcome.agreement(),
        "flags": [{"accuser": fl.accuser, "accused": fl.accused, "reason": fl.reason}
                  for fl in flags],
        "values": {str(k): v for k, v in cluster.correct_values().items()},
        "exhausted": outcome.exhausted,
    })
    return outcome, lines, timing


def _run_cr(spec: dict, attack: dict, kind: str):
    n, f = spec.get("n", 3), spec.get("f", 1)
    node_cls_at, node_kwargs_at = {}, {}
    if kind == "lie":
        position = attack.get("position", 1)
        if not 0 <= position < n:
            raise ValueError(f"lie position {position!r} is not in the chain")
        node_cls_at[position] = LyingMiddle
        node_kwargs_at[position] = {"lie_at_commit": attack.get("commit", 1)}
    cluster = ChainCluster.build(n=n, f=f, seed=spec.get("seed", 0),
                                 node_cls_at=node_cls_at,
                                 node_kwargs_at=node_kwargs_at,
                                 attest_delay_ns=spec.get("attest_delay_ns", 0))
    _install_faults(spec, cluster.cluster.net)

    pairs, lines = [], []

    def submit(round_id: int, body: bytes | None) -> bool:
        if body is None:
            key, value = b"k%d" % round_id, b"v%d" % (round_id * 17)
        else:
            key, value = b"k%08d" % (round_id % 128), body
        req = cluster.run_put(0, round_id, key, value)
        accepted = cluster.clients[0].accepted_value(req)
        pairs.append((round_id.to_bytes(8, "big") + value, accepted))  # index r ‖ value
        lines.append({"round": round_id,
                      "accepted": accepted.hex() if accepted else None})
        return accepted is not None
    timing = _run_rounds(spec, cluster.cluster.net.clock, submit, 4)

    flags = cluster.all_flags()
    histories = cluster.commit_histories()
    tail, masked = cluster.nodes[cluster.order[-1]], set()
    if tail.deviated:   # the liar: f+1 outvoted it if client 0 got the right value
        expected, accepted = pairs[tail.lie_at_commit - 1]
        masked = {tail.node_id} if accepted == expected else set()
    outcome = Outcome(pairs, {fl.accused for fl in flags},
                      {d for d, node in cluster.nodes.items() if node.deviated}, masked,
                      diverged=len({tuple(h) for h in histories.values()}) > 1,
                      exhausted=len(cluster.cluster.net.exhausted))
    lines.append({"protocol": "cr", "flags": [
        {"accuser": fl.accuser, "position": cluster.order.index(fl.accused),
         "reason": fl.reason} for fl in flags],
        "commit_histories": {str(k): v for k, v in histories.items()},
        "exhausted": outcome.exhausted, "masked": bool(masked)})
    return outcome, lines, timing


def _run_peerreview(spec: dict, attack: dict, kind: str):
    target = attack.get("node", 2) if kind != "none" else None
    child_cls_at, child_kwargs_at = {}, {}
    if kind == "mutate_result":
        child_cls_at[target] = MutatingChild
        child_kwargs_at[target] = {"mutate_round": attack.get("round", 1)}
    scenario = PrScenario.build(seed=spec.get("seed", 0),
                                n_children=spec.get("children", 2),
                                child_cls_at=child_cls_at,
                                child_kwargs_at=child_kwargs_at,
                                attest_delay_ns=spec.get("attest_delay_ns", 0))
    if target is not None and target not in scenario.children:
        raise ValueError(f"attack node {target!r} is not a child")
    _install_faults(spec, scenario.cluster.net)

    def submit(round_id: int, body: bytes | None) -> bool:
        # A child answers each command once, in order, or not at all.
        scenario.run_rounds([b"cmd-%d" % round_id if body is None else body])
        return all(len(got) >= round_id for got in scenario.root.responses.values())
    timing = _run_rounds(spec, scenario.cluster.net.clock, submit, 4)

    if kind == "rewrite_log":
        child, seq = scenario.children[target], attack.get("seq", 0)
        first = child.log.first
        if not first <= seq < len(child.log):
            dropped = f" ({first} dropped at a checkpoint)" if first else ""
            raise ValueError(f"rewrite_log seq {seq!r} is not in child {target}'s "
                             f"log of {len(child.log)} entries{dropped}")
        rewrite_log_entry(child, seq, b"\x52rewritten-history")

    verdicts = scenario.audit_all()
    outcome = Outcome([], accused={d for d, v in verdicts.items() if not v.consistent},
                      deviated={d for d, c in scenario.children.items() if c.deviated},
                      exhausted=len(scenario.cluster.net.exhausted))
    lines = [{"node": d, "verdict": v.kind, "seq": v.seq} for d, v in verdicts.items()]
    lines.append({"protocol": "peerreview", "exhausted": outcome.exhausted})
    return outcome, lines, timing


def _run_raw_channel(spec: dict, attack: dict, kind: str):
    cluster = build_cluster([1, 2], spec.get("seed", 0),
                            attest_delay_ns=spec.get("attest_delay_ns", 0))
    net, session = cluster.net, transport_session(1, 2)
    sender, receiver = cluster.endpoints[1], cluster.endpoints[2]
    _install_faults(spec, net)
    sent, delivered = [], []

    def submit(round_id: int, body: bytes | None) -> bool:
        sent.append(b"rec-%d" % round_id if body is None else body)
        sender.auth_send(session, sent[-1])
        net.run_until_quiescent()
        got = [msg.payload for msg in receiver.poll(session)]
        delivered.extend(got)
        return bool(got)
    timing = _run_rounds(spec, net.clock, submit, 4)

    # A delayed frame lands in a later round, so the sequences compare whole.
    outcome = Outcome([(sent, delivered)], exhausted=len(net.exhausted))
    return outcome, [{"protocol": "raw-channel", "delivered": len(delivered),
                      "exhausted": outcome.exhausted}], timing


def _run_a2m(spec: dict, attack: dict, kind: str):
    seed = spec.get("seed", 0)
    cluster = build_cluster([1], seed, attest_delay_ns=spec.get("attest_delay_ns", 0))
    endpoint, manifest, log = cluster.endpoints[1], log_session(0xFF), log_session(1)
    endpoint.provision([(manifest, 1, derive_key(seed, manifest))])
    store = A2mStore(endpoint, manifest_log=manifest)
    appended: list[tuple[bytes, int, bytes]] = []

    def submit(round_id: int, body: bytes | None) -> bool:
        appended.append(store.append(log, b"rec-%d" % round_id if body is None else body))
        return True
    timing = _run_rounds(spec, cluster.net.clock, submit, 4)

    lookups = [store.lookup(log, seq) for _, seq, _ in appended]
    outcome = Outcome([(appended, [(e.tag, e.seq, e.ctx) for e in lookups])])
    return outcome, [{"protocol": "a2m", "appended": len(appended)}], timing


_RUNNERS = {"raw-channel": _run_raw_channel, "a2m": _run_a2m, "bft": _run_bft,
            "cr": _run_cr, "peerreview": _run_peerreview}
PROTOCOLS = tuple(_RUNNERS)
