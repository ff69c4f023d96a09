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
      "faults": {"seed": 0, "actions": [...]}  # optional wire-fault schedule
    }

Every field but "protocol" and the kinds is an integer; "rounds", "children"
and "batch" are at least 1, "attest_delay_ns" and "payload" at least 0. An
action's "session", "sender" and "index" may also be null, which matches any
value.

Round r submits one body: without "payload", the protocol's own (an empty
BFT request, a CR put of b"v<17r>" at b"k<r>", b"cmd-<r>", b"rec-<r>"); with
it, `pack_batch` of "batch" records of `randbytes(payload)` from
`Random(seed)`, which CR puts at the key b"k%08d" % (r % 128).

Attack kinds per protocol (any other kind is rejected as bad input; wire
faults such as replay, reorder or drop go in "faults"):
    bft:        equivocate {round}, wrong_value {round}, crash {node, after_round}
    cr:         lie {position, commit}
    peerreview: mutate_result {node, round}, rewrite_log {node, seq}
    raw-channel and a2m take none.

Run artifacts are JSON-serializable dicts: accepted values, flags,
diagnostics, and verdicts. A run is "safe" when no client accepted a wrong
value, every injected deviation was detected, and no honest node was
accused: a BFT flag may accuse only a Byzantine leader, a chain flag only the
lying position, and a PeerReview audit may find only the attacked child
inconsistent. An attack that never deviated (its round or commit never
came, or a Byzantine leader has no follower) is judged as an honest run. A
deviation is "masked" when no correct node can detect it and the f+1 quorum
outvotes it: no node follows a lying tail to check it, so a CR lie is
masked, and the run ok without a flag, when the liar is the tail, the lied
commit was reached, and client 0 accepted the correct value for that commit.
A raw-channel run is ok when the receiver got every body in order, and an
A2M run when each lookup returns what was appended. The final line of a
protocol that sends frames counts those whose retry budget ran out
("exhausted"); a run with any is not ok.

A result also holds each round's simulated latency and the elapsed
simulated time, read before any audit or verdict runs, and the stalled
rounds: those whose client 0 (PeerReview's root, the raw channel's receiver)
accepted nothing.
"""

import json
import random
from dataclasses import dataclass

from .device import pack_batch
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


def load_scenario(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: a scenario is a JSON object")
    return spec


ATTACK_KINDS = {"bft": ("equivocate", "wrong_value", "crash"), "cr": ("lie",),
                "peerreview": ("mutate_result", "rewrite_log")}
INT_FIELDS = ("seed", "rounds", "n", "f", "children", "attest_delay_ns", "batch",
              "payload")
WILDCARD_FIELDS = ("session", "sender", "index")   # of a fault action; null matches any


def _require_int(what: str, value) -> None:
    # bool is an int subclass, but `"rounds": true` is a typo, not a count.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def _require_object(what: str, value) -> None:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {value!r}")


def run_scenario(spec: dict) -> ScenarioResult:
    """Run a scenario. Input that is not a valid scenario, such as a field of
    the wrong JSON type, raises ValueError before anything runs."""
    protocol = spec.get("protocol", "bft")
    if not isinstance(protocol, str) or protocol not in _RUNNERS:
        raise ValueError(f"unknown protocol {protocol!r}")
    for name in INT_FIELDS:
        if name in spec:
            _require_int(f'"{name}"', spec[name])
    for name, low in (("rounds", 1), ("children", 1), ("attest_delay_ns", 0),
                      ("batch", 1), ("payload", 0)):
        if spec.get(name, low) < low:
            raise ValueError(f'"{name}" must be >= {low}, got {spec[name]}')
    attack = spec.get("attack", {})
    _require_object('"attack"', attack)
    for name, value in attack.items():
        if name != "kind":
            _require_int(f'attack "{name}"', value)
    kind = attack.get("kind", "none")
    if kind != "none" and kind not in ATTACK_KINDS.get(protocol, ()):
        raise ValueError(f"unknown {protocol} attack kind {kind!r}")
    return _RUNNERS[protocol](spec, attack, kind)


def _run_rounds(spec: dict, clock, submit, default_rounds: int):
    """The one round loop. `submit(r, body)` runs round r, with body None for
    the protocol's own, and returns False if the round's client accepted
    nothing. Returns each round's simulated latency, the elapsed simulated
    time and the stalled rounds, as ScenarioResult's fields."""
    rng = random.Random(spec.get("seed", 0))
    payload, batch = spec.get("payload"), spec.get("batch", 1)
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
    seed = faults.get("seed", spec.get("seed", 0))
    _require_int('faults "seed"', seed)
    actions = faults.get("actions", [])
    if not isinstance(actions, list):
        raise ValueError(f'faults "actions" must be a list, got {actions!r}')
    for action in actions:
        _require_object("a fault action", action)
        for name, value in action.items():
            if name != "kind" and not (value is None and name in WILDCARD_FIELDS):
                _require_int(f'fault action "{name}"', value)
    try:
        actions = [FaultAction(**a) for a in actions]
    except TypeError as exc:
        raise ValueError(f"bad fault action: {exc}") from None
    net.install_schedule(FaultSchedule(seed=seed, actions=actions))


def _run_bft(spec: dict, attack: dict, kind: str) -> ScenarioResult:
    n, f = spec.get("n", 3), spec.get("f", 1)

    leader_cls, leader_kwargs = BftReplica, {}
    if kind == "equivocate":
        leader_cls = EquivocatingLeader
        leader_kwargs = {"equivocate_round": attack.get("round", 1)}
    elif kind == "wrong_value":
        leader_cls = WrongValueLeader
        leader_kwargs = {"lie_round": attack.get("round", 1)}

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
    agreed: list[bool] = []
    lines: list[dict] = []

    def submit(round_id: int, body: bytes | None) -> bool:
        if crash and round_id == crash.get("after_round", 1) + 1:
            cluster.replicas[crash.get("node", n)].crashed = True
        req = cluster.run_request(0, round_id, b"" if body is None else body)
        values = {c.client_id: c.observed.get(req) for c in cluster.clients}
        agreed.append(all(v in (None, counter_state(round_id)) for v in values.values()))
        lines.append({
            "round": round_id,
            "accepted": {str(k): (v.hex() if v else None) for k, v in values.items()},
        })
        return cluster.clients[0].accepted_value(req) is not None
    timing = _run_rounds(spec, cluster.cluster.net.clock, submit, 5)

    agreement = all(agreed)
    flags = [{"accuser": fl.accuser, "accused": fl.accused, "reason": fl.reason}
             for fl in cluster.all_flags()]
    byzantine = {cluster.leader_id} if kind in ("equivocate", "wrong_value") else set()
    detected = bool(flags) or not cluster.replicas[cluster.leader_id].deviated
    accused = {fl["accused"] for fl in flags}
    exhausted = len(cluster.cluster.net.exhausted)
    ok = agreement and detected and accused <= byzantine and not exhausted
    lines.append({
        "protocol": "bft", "agreement": agreement, "flags": flags,
        "values": {str(k): v for k, v in cluster.correct_values().items()},
        "exhausted": exhausted, "ok": ok,
    })
    return ScenarioResult(ok, lines, *timing)


def _run_cr(spec: dict, attack: dict, kind: str) -> ScenarioResult:
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
                                 node_kwargs_at=node_kwargs_at, clients=2,
                                 attest_delay_ns=spec.get("attest_delay_ns", 0))
    _install_faults(spec, cluster.cluster.net)

    lines: list[dict] = []
    wrong_accepts: list[int] = []
    correct_commits = set()     # commit indexes client 0 accepted correctly

    def submit(round_id: int, body: bytes | None) -> bool:
        if body is None:
            key, value = b"k%d" % round_id, b"v%d" % (round_id * 17)
        else:
            key, value = b"k%08d" % (round_id % 128), body
        req = cluster.run_put(0, round_id, key, value)
        accepted = cluster.clients[0].accepted_value(req)
        if accepted is not None:
            if accepted.endswith(value):
                correct_commits.add(int.from_bytes(accepted[:8], "big"))
            else:
                wrong_accepts.append(round_id)
        lines.append({"round": round_id,
                      "accepted": accepted.hex() if accepted else None})
        return accepted is not None
    timing = _run_rounds(spec, cluster.cluster.net.clock, submit, 4)

    flags = [{"accuser": fl.accuser, "position": cluster.order.index(fl.accused),
              "reason": fl.reason} for fl in cluster.all_flags()]
    histories = cluster.commit_histories()
    identical = len({tuple(h) for h in histories.values()}) == 1
    accused = {fl["position"] for fl in flags}
    liar = cluster.nodes[cluster.order[position]] if kind == "lie" else None
    deviated = liar is not None and liar.deviated
    masked = deviated and liar.is_tail and liar.lie_at_commit in correct_commits
    exhausted = len(cluster.cluster.net.exhausted)
    ok = ((bool(flags) or masked if deviated else identical and not flags)
          and not wrong_accepts and accused <= set(node_cls_at) and not exhausted)
    lines.append({"protocol": "cr", "flags": flags,
                  "commit_histories": {str(k): v for k, v in histories.items()},
                  "exhausted": exhausted, "masked": masked, "ok": ok})
    return ScenarioResult(ok, lines, *timing)


def _run_peerreview(spec: dict, attack: dict, kind: str) -> ScenarioResult:
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
    lines = [{"node": node, "verdict": v.kind, "seq": v.seq}
             for node, v in verdicts.items()]
    # Only the attacked child may be, and must be, found inconsistent; a
    # mutate_result whose round never came leaves it honest.
    if kind == "mutate_result" and not scenario.children[target].deviated:
        target = None
    ok = all(v.consistent != (node == target) for node, v in verdicts.items())
    exhausted = len(scenario.cluster.net.exhausted)
    ok = ok and not exhausted
    lines.append({"protocol": "peerreview", "exhausted": exhausted, "ok": ok})
    return ScenarioResult(ok, lines, *timing)


def _run_raw_channel(spec: dict, attack: dict, kind: str) -> ScenarioResult:
    cluster = build_cluster([1, 2], spec.get("seed", 0),
                            attest_delay_ns=spec.get("attest_delay_ns", 0))
    net, session = cluster.net, transport_session(1, 2)
    sender, receiver = cluster.endpoints[1], cluster.endpoints[2]
    _install_faults(spec, net)
    sent: list[bytes] = []
    delivered: list[bytes] = []

    def submit(round_id: int, body: bytes | None) -> bool:
        sent.append(b"rec-%d" % round_id if body is None else body)
        sender.auth_send(session, sent[-1])
        net.run_until_quiescent()
        got = [msg.payload for msg in receiver.poll(session)]
        delivered.extend(got)
        return bool(got)
    timing = _run_rounds(spec, net.clock, submit, 4)

    exhausted = len(net.exhausted)
    ok = delivered == sent and not exhausted
    return ScenarioResult(ok, [{"protocol": "raw-channel", "delivered": len(delivered),
                                "exhausted": exhausted, "ok": ok}], *timing)


def _run_a2m(spec: dict, attack: dict, kind: str) -> ScenarioResult:
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

    entries = [store.lookup(log, seq) for _, seq, _ in appended]
    ok = [(e.tag, e.seq, e.ctx) for e in entries] == appended
    return ScenarioResult(ok, [{"protocol": "a2m", "appended": len(appended), "ok": ok}],
                          *timing)


_RUNNERS = {"raw-channel": _run_raw_channel, "a2m": _run_a2m, "bft": _run_bft,
            "cr": _run_cr, "peerreview": _run_peerreview}
PROTOCOLS = tuple(_RUNNERS)
