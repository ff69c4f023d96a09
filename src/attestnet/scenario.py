"""Scenario files: topology, roles, workload, faults, and the run artifacts.

A scenario is a JSON object:

    {
      "protocol": "bft" | "cr" | "peerreview" | "raw-channel" | "a2m",
      "seed": 0,
      "rounds": 5,                             # bft; 4 for the others
      "n": 3, "f": 1,                          # bft, cr
      "children": 2,                           # peerreview
      "attest_delay_ns": 0,                    # simulated cost of each attest
      "batch": 1, "payload": 64,               # optional round bodies
      "attack": {"kind": "...", ...},          # optional
      "faults": {"seed": 0, "actions": [...]}  # optional, not a2m: wire faults
    }

"protocol" defaults to "bft". The defaults of every other field live in one
table, SPEC_FIELDS, and those of each attack kind's fields in ATTACK_KINDS;
"payload" has none (64 above is only an example), and "batch" is read only
with it. "faults" "seed" defaults to the spec's.

A name the protocol, its attack kind or a fault action does not take is bad
input, and so is a fault action without "kind". Every field but "protocol"
and the kinds is an integer. "rounds", "children", "batch" and an attack's
"round" and "commit" are at least 1; "attest_delay_ns", "payload", an
attack's "after_round" and "seq" and a fault action's "index", "delay_ns",
"earlier_index", "bit_offset", "session" and "sender" at least 0, as a
smaller value never fires or sends a frame back in time. An action's
"session", "sender" and "index" may also be null, which matches any value.

`run_scenario` completes the spec and checks it before anything is built:
names, types and least values, the fault schedule, the attack's target (a
crash node is a replica, a lie position is in the chain, a PeerReview
attack node is a child, a rewrite_log "seq" is below "rounds", as a child
logs one entry a round) and the largest payload a round hands the kernel,
at most 64 KiB. Each protocol module states it: a BFT proof, a CR proof of
one level a node, or the PeerReview root's RECV entry of one poll's answers,
one a child and one a "replay" action, which grows with "rounds" without
"payload". Only the topology rules the cluster builders own
(`ProtocolConfig`, device ids at most 255) are checked after the build.

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
from .kernel import MAX_PAYLOAD
from .protocols.a2m import A2mStore
from .protocols.bft import (
    BftCluster,
    BftReplica,
    EquivocatingLeader,
    WrongValueLeader,
    counter_state,
    proof_len,
)
from .protocols.chain import ChainCluster, LyingMiddle, put_proof_len
from .protocols.common import build_cluster, derive_key, log_session, transport_session
from .protocols.peerreview import MutatingChild, PrScenario, recv_entry_len, rewrite_log_entry
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


# Each protocol's spec fields besides "protocol", and the default of each
# ("payload" None: the protocol's own bodies). A2M sends no frame, so it
# takes no "faults".
SPEC_FIELDS = {
    "bft": {"seed": 0, "rounds": 5, "n": 3, "f": 1, "attest_delay_ns": 0, "batch": 1,
            "payload": None, "attack": {}, "faults": None},
    "cr": {"seed": 0, "rounds": 4, "n": 3, "f": 1, "attest_delay_ns": 0, "batch": 1,
           "payload": None, "attack": {}, "faults": None},
    "peerreview": {"seed": 0, "rounds": 4, "children": 2, "attest_delay_ns": 0,
                   "batch": 1, "payload": None, "attack": {}, "faults": None},
    "raw-channel": {"seed": 0, "rounds": 4, "attest_delay_ns": 0, "batch": 1,
                    "payload": None, "attack": {}, "faults": None},
    "a2m": {"seed": 0, "rounds": 4, "attest_delay_ns": 0, "batch": 1, "payload": None,
            "attack": {}},
}
# Each protocol's attack kinds, and the default of each field besides "kind".
# A crash's "node" None is the spec's "n", the last replica.
ATTACK_KINDS = {"bft": {"equivocate": {"round": 1}, "wrong_value": {"round": 1},
                        "crash": {"node": None, "after_round": 1}},
                "cr": {"lie": {"position": 1, "commit": 1}},
                "peerreview": {"mutate_result": {"node": 2, "round": 1},
                               "rewrite_log": {"node": 2, "seq": 0}}}
WILDCARD_FIELDS = ("session", "sender", "index")   # of a fault action; null matches any
FAULT_ACTION_FIELDS = ("kind", *WILDCARD_FIELDS, "delay_ns", "bit_offset",
                       "earlier_index")
# The least value of each integer field that has one; the spec's fields, a
# fault action's and an attack's share no name.
MINIMUMS = {"rounds": 1, "children": 1, "batch": 1, "attest_delay_ns": 0, "payload": 0,
            "index": 0, "delay_ns": 0, "earlier_index": 0, "bit_offset": 0, "session": 0,
            "sender": 0, "round": 1, "commit": 1, "after_round": 0, "seq": 0}


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
    body too large for the kernel, raises ValueError. The spec is completed
    from SPEC_FIELDS and ATTACK_KINDS and checked here, before a runner
    builds anything, but for the topology rules the builders own."""
    protocol = spec.get("protocol", "bft")
    if not isinstance(protocol, str) or protocol not in _RUNNERS:
        raise ValueError(f"unknown protocol {protocol!r}")
    attack = spec.get("attack", {})
    _require_object('"attack"', attack)
    kind = attack.get("kind", "none")
    fields = ATTACK_KINDS.get(protocol, {}).get(kind) if isinstance(kind, str) else None
    if kind != "none" and fields is None:
        raise ValueError(f"unknown {protocol} attack kind {kind!r}")
    _require_known(f"{protocol} ", spec, ("protocol", *SPEC_FIELDS[protocol]))
    _require_known(f"{kind!r} attack ", attack, ("kind", *(fields or ())))
    for name, value in spec.items():
        if name not in ("protocol", "attack", "faults"):
            _require_int("", name, value)
    for name, value in attack.items():
        if name != "kind":
            _require_int("attack ", name, value)
    if "batch" in spec and "payload" not in spec:
        raise ValueError('"batch" needs "payload": without it a round sends the '
                         "protocol's own body")

    spec = {**SPEC_FIELDS[protocol], **spec, "protocol": protocol}
    attack = spec["attack"] = {"kind": kind, **(fields or {}), **attack}
    # A2M's table has no "faults", and its schedule is None.
    spec["faults"] = _parse_faults(spec.get("faults"), spec["seed"])
    if kind == "crash" and attack["node"] is None:
        attack["node"] = spec["n"]
    # BftCluster's replicas are devices 1..n; PeerReview's root is device 1
    # and its children the devices after it.
    if kind == "crash" and not 1 <= attack["node"] <= spec["n"]:
        raise ValueError(f"crash node {attack['node']!r} is not a replica")
    if kind == "lie" and not 0 <= attack["position"] < spec["n"]:
        raise ValueError(f"lie position {attack['position']!r} is not in the chain")
    if protocol == "peerreview" and kind != "none" and not (
            2 <= attack["node"] <= spec["children"] + 1):
        raise ValueError(f"attack node {attack['node']!r} is not a child")
    if kind == "rewrite_log" and attack["seq"] >= spec["rounds"]:
        raise ValueError(f'rewrite_log seq {attack["seq"]} is not below "rounds" '
                         f'{spec["rounds"]}: a child logs one entry a round')
    # The largest kernel payload of a round, at least its body, the last one's:
    # an own body grows with r, and pack_batch takes 4 bytes a length.
    size = body = (len(_OWN_BODIES[protocol](spec["rounds"])) if spec["payload"] is None
                   else 4 + spec["batch"] * (4 + spec["payload"]))
    if protocol == "bft":
        size = proof_len(spec["n"], body)
    elif protocol == "cr" and spec["n"] > 1:    # the last round's key, as `_run_cr` puts
        r = spec["rounds"]
        key = b"k%d" % r if spec["payload"] is None else b"k%08d" % (r % 128)
        size = put_proof_len(spec["n"], len(key), body)
    elif protocol == "peerreview":
        # One poll holds a round's answers, one a child, and a frame lost to exhausted
        # retries only once an adversary's copy of it lands (`Network.step`), as only
        # a replay copies an earlier frame, once. An upper bound, checked on 1 and 237.
        faults = spec["faults"].actions if spec["faults"] else []
        replays = sum(action.kind == "replay" for action in faults)
        size = recv_entry_len(spec["children"] + replays, body)
    if size > MAX_PAYLOAD:
        topology = {"cr": ' or "n"',
                    "peerreview": ', "children", "rounds" or "replay" actions'}
        raise ValueError(f'"payload"{topology.get(protocol, "")} too large: '
                         f'{size} > {MAX_PAYLOAD} bytes')
    outcome, lines, timing = _RUNNERS[protocol](spec)
    ok = lines[-1]["ok"] = judge(outcome)
    return ScenarioResult(ok, lines, *timing)


# Round r's own body, sent without "payload" (see above); each grows with r.
_OWN_BODIES = {"bft": lambda r: b"", "cr": lambda r: b"v%d" % (r * 17),
               "peerreview": lambda r: b"cmd-%d" % r,
               "raw-channel": lambda r: b"rec-%d" % r, "a2m": lambda r: b"rec-%d" % r}


def _parse_faults(faults, seed: int) -> FaultSchedule | None:
    """The spec's wire-fault schedule, if it has one; its seed defaults to
    the spec's."""
    if faults is None:
        return None
    _require_object('"faults"', faults)
    _require_known("faults ", faults, ("seed", "actions"))
    faults = {"seed": seed, "actions": [], **faults}
    _require_int("faults ", "seed", faults["seed"])
    if not isinstance(faults["actions"], list):
        raise ValueError(f'faults "actions" must be a list, got {faults["actions"]!r}')
    for action in faults["actions"]:
        _require_object("a fault action", action)
        _require_known("fault action ", action, FAULT_ACTION_FIELDS)
        if "kind" not in action:
            raise ValueError(f'a fault action needs a "kind", got {action!r}')
        for name, value in action.items():
            if name != "kind" and not (value is None and name in WILDCARD_FIELDS):
                _require_int("fault action ", name, value)
    return FaultSchedule(seed=faults["seed"],
                         actions=[FaultAction(**a) for a in faults["actions"]])


def _run_rounds(spec: dict, net: Network, submit):
    """The one round loop: installs the spec's wire faults on net, then
    `submit(r, body)` runs round r and returns False if its client accepted
    nothing. Returns ScenarioResult's simulated latencies, elapsed time and
    stalled rounds."""
    if spec["faults"] is not None:
        net.install_schedule(spec["faults"])
    rng = random.Random(spec["seed"])
    payload, batch, clock = spec["payload"], spec["batch"], net.clock
    own_body, latencies, stalled = _OWN_BODIES[spec["protocol"]], [], []
    start = clock.now_ns
    for round_id in range(1, spec["rounds"] + 1):
        body = own_body(round_id) if payload is None else pack_batch(
            [rng.randbytes(payload) for _ in range(batch)])
        t0 = clock.now_ns
        if not submit(round_id, body):
            stalled.append(round_id)
        latencies.append(clock.now_ns - t0)
    return latencies, clock.now_ns - start, stalled


def _run_bft(spec: dict):
    attack = spec["attack"]
    leader_cls, leader_kwargs = BftReplica, {}
    if attack["kind"] == "equivocate":
        leader_cls = EquivocatingLeader
        leader_kwargs = {"equivocate_round": attack["round"]}
    elif attack["kind"] == "wrong_value":
        leader_cls = WrongValueLeader
        leader_kwargs = {"lie_round": attack["round"]}
    cluster = BftCluster.build(n=spec["n"], f=spec["f"], seed=spec["seed"],
                               leader_cls=leader_cls, leader_kwargs=leader_kwargs,
                               clients=2, attest_delay_ns=spec["attest_delay_ns"])
    crash = attack if attack["kind"] == "crash" else None

    # The leader executes the requests in round order, and none once it has
    # crashed, so the only value a client may accept for round r is r.
    pairs, lines = [], []

    def submit(round_id: int, body: bytes) -> bool:
        if crash and round_id == crash["after_round"] + 1:
            cluster.replicas[crash["node"]].crashed = True
        req = cluster.run_request(0, round_id, body)
        values = {c.client_id: c.observed.get(req) for c in cluster.clients}
        pairs.extend((counter_state(round_id), v) for v in values.values())
        lines.append({"round": round_id, "accepted": {
            str(k): (v.hex() if v else None) for k, v in values.items()}})
        return cluster.clients[0].accepted_value(req) is not None
    timing = _run_rounds(spec, cluster.cluster.net, submit)

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


def _run_cr(spec: dict):
    attack, node_cls_at, node_kwargs_at = spec["attack"], {}, {}
    if attack["kind"] == "lie":
        node_cls_at[attack["position"]] = LyingMiddle
        node_kwargs_at[attack["position"]] = {"lie_at_commit": attack["commit"]}
    cluster = ChainCluster.build(n=spec["n"], f=spec["f"], seed=spec["seed"],
                                 node_cls_at=node_cls_at,
                                 node_kwargs_at=node_kwargs_at,
                                 attest_delay_ns=spec["attest_delay_ns"])

    pairs, lines = [], []

    def submit(round_id: int, value: bytes) -> bool:
        key = b"k%d" % round_id if spec["payload"] is None else b"k%08d" % (round_id % 128)
        req = cluster.run_put(0, round_id, key, value)
        accepted = cluster.clients[0].accepted_value(req)
        pairs.append((round_id.to_bytes(8, "big") + value, accepted))  # index r ‖ value
        lines.append({"round": round_id,
                      "accepted": accepted.hex() if accepted else None})
        return accepted is not None
    timing = _run_rounds(spec, cluster.cluster.net, submit)

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


def _run_peerreview(spec: dict):
    attack, child_cls_at, child_kwargs_at = spec["attack"], {}, {}
    if attack["kind"] == "mutate_result":
        child_cls_at[attack["node"]] = MutatingChild
        child_kwargs_at[attack["node"]] = {"mutate_round": attack["round"]}
    scenario = PrScenario.build(seed=spec["seed"], n_children=spec["children"],
                                child_cls_at=child_cls_at,
                                child_kwargs_at=child_kwargs_at,
                                attest_delay_ns=spec["attest_delay_ns"])

    def submit(round_id: int, body: bytes) -> bool:
        # A child answers each command once, in order, or not at all.
        scenario.run_rounds([body])
        return all(len(got) >= round_id for got in scenario.root.responses.values())
    timing = _run_rounds(spec, scenario.cluster.net, submit)

    if attack["kind"] == "rewrite_log":
        child = scenario.children[attack["node"]]
        if attack["seq"] < len(child.log):   # else the child lost that command
            rewrite_log_entry(child, attack["seq"], b"\x52rewritten-history")

    verdicts = scenario.audit_all()
    outcome = Outcome([], accused={d for d, v in verdicts.items() if not v.consistent},
                      deviated={d for d, c in scenario.children.items() if c.deviated},
                      exhausted=len(scenario.cluster.net.exhausted))
    lines = [{"node": d, "verdict": v.kind, "seq": v.seq} for d, v in verdicts.items()]
    lines.append({"protocol": "peerreview", "exhausted": outcome.exhausted})
    return outcome, lines, timing


def _run_raw_channel(spec: dict):
    cluster = build_cluster([1, 2], spec["seed"], attest_delay_ns=spec["attest_delay_ns"])
    net, session = cluster.net, transport_session(1, 2)
    sender, receiver = cluster.endpoints[1], cluster.endpoints[2]
    sent, delivered = [], []

    def submit(round_id: int, body: bytes) -> bool:
        sent.append(body)
        sender.auth_send(session, body)
        net.run_until_quiescent()
        got = [msg.payload for msg in receiver.poll(session)]
        delivered.extend(got)
        return bool(got)
    timing = _run_rounds(spec, net, submit)

    # A delayed frame lands in a later round, so the sequences compare whole.
    outcome = Outcome([(sent, delivered)], exhausted=len(net.exhausted))
    return outcome, [{"protocol": "raw-channel", "delivered": len(delivered),
                      "exhausted": outcome.exhausted}], timing


def _run_a2m(spec: dict):
    seed = spec["seed"]
    cluster = build_cluster([1], seed, attest_delay_ns=spec["attest_delay_ns"])
    endpoint, manifest, log = cluster.endpoints[1], log_session(0xFF), log_session(1)
    endpoint.provision([(manifest, 1, derive_key(seed, manifest))])
    store = A2mStore(endpoint, manifest_log=manifest)
    appended: list[tuple[bytes, int, bytes]] = []

    def submit(round_id: int, body: bytes) -> bool:
        appended.append(store.append(log, body))
        return True
    timing = _run_rounds(spec, cluster.net, submit)

    lookups = [store.lookup(log, seq) for _, seq, _ in appended]
    outcome = Outcome([(appended, [(e.tag, e.seq, e.ctx) for e in lookups])])
    return outcome, [{"protocol": "a2m", "appended": len(appended)}], timing


_RUNNERS = {"raw-channel": _run_raw_channel, "a2m": _run_a2m, "bft": _run_bft,
            "cr": _run_cr, "peerreview": _run_peerreview}
PROTOCOLS = tuple(_RUNNERS)
