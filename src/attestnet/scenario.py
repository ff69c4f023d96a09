"""Scenario files: topology, roles, workload, faults, and the run artifacts.

A scenario is a JSON object:

    {
      "protocol": "bft" | "cr" | "peerreview",
      "seed": 0,
      "rounds": 5,
      "n": 3, "f": 1,
      "attack": {"kind": "...", ...},          # optional
      "faults": {"seed": 0, "actions": [...]}  # optional wire-fault schedule
    }

Every field but "protocol" and the kinds is an integer; an action's
"session", "sender" and "index" may also be null, which matches any value.

Attack kinds per protocol (any other kind is rejected as bad input; wire
faults such as replay, reorder or drop go in "faults"):
    bft:        equivocate {round}, wrong_value {round}, crash {node, after_round}
    cr:         lie {position, commit}
    peerreview: mutate_result {node, round}, rewrite_log {node, seq}

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
The final line counts the frames whose retry budget ran out ("exhausted"); a
run with any is not ok.
"""

import json
from dataclasses import dataclass, field

from .protocols.bft import BftCluster, BftReplica, EquivocatingLeader, WrongValueLeader
from .protocols.chain import ChainCluster, LyingMiddle
from .protocols.peerreview import MutatingChild, PrScenario, rewrite_log_entry
from .simnet import FaultAction, FaultSchedule


@dataclass
class ScenarioResult:
    ok: bool
    lines: list[dict] = field(default_factory=list)

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
INT_FIELDS = ("seed", "rounds", "n", "f", "children")
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
    if not isinstance(protocol, str) or protocol not in ATTACK_KINDS:
        raise ValueError(f"unknown protocol {protocol!r}")
    for name in INT_FIELDS:
        if name in spec:
            _require_int(f'"{name}"', spec[name])
    attack = spec.get("attack", {})
    _require_object('"attack"', attack)
    for name, value in attack.items():
        if name != "kind":
            _require_int(f'attack "{name}"', value)
    kind = attack.get("kind", "none")
    if kind != "none" and kind not in ATTACK_KINDS[protocol]:
        raise ValueError(f"unknown {protocol} attack kind {kind!r}")
    if protocol == "bft":
        return _run_bft(spec, attack, kind)
    if protocol == "cr":
        return _run_cr(spec, attack, kind)
    return _run_peerreview(spec, attack, kind)


def _fault_schedule(spec: dict) -> FaultSchedule | None:
    faults = spec.get("faults")
    if faults is None:
        return None
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
    return FaultSchedule(seed=seed, actions=actions)


def _run_bft(spec: dict, attack: dict, kind: str) -> ScenarioResult:
    seed = spec.get("seed", 0)
    rounds = spec.get("rounds", 5)
    n, f = spec.get("n", 3), spec.get("f", 1)

    leader_cls, leader_kwargs = BftReplica, {}
    if kind == "equivocate":
        leader_cls = EquivocatingLeader
        leader_kwargs = {"equivocate_round": attack.get("round", 1)}
    elif kind == "wrong_value":
        leader_cls = WrongValueLeader
        leader_kwargs = {"lie_round": attack.get("round", 1)}

    cluster = BftCluster.build(n=n, f=f, seed=seed, leader_cls=leader_cls,
                               leader_kwargs=leader_kwargs, clients=2)
    crash = attack if kind == "crash" else None
    if crash and crash.get("node", n) not in cluster.replicas:
        raise ValueError(f"crash node {crash.get('node', n)!r} is not a replica")
    schedule = _fault_schedule(spec)
    if schedule is not None:
        cluster.cluster.net.install_schedule(schedule)

    lines: list[dict] = []
    for round_id in range(1, rounds + 1):
        if crash and round_id == crash.get("after_round", 1) + 1:
            cluster.replicas[crash.get("node", n)].crashed = True
        req = cluster.clients[0].issue(round_id)
        cluster.replicas[cluster.leader_id].leader_handle(req)
        cluster.drain()
        values = {c.client_id: c.observed.get(req) for c in cluster.clients}
        lines.append({
            "round": round_id,
            "accepted": {str(k): (v.hex() if v else None) for k, v in values.items()},
        })

    flags = [{"accuser": fl.accuser, "accused": fl.accused, "reason": fl.reason}
             for fl in cluster.all_flags()]
    agreement = True
    for req in cluster.clients[0].observed:
        vals = {c.observed[req] for c in cluster.clients if req in c.observed}
        if len(vals) > 1:
            agreement = False
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
    return ScenarioResult(ok=ok, lines=lines)


def _run_cr(spec: dict, attack: dict, kind: str) -> ScenarioResult:
    seed = spec.get("seed", 0)
    rounds = spec.get("rounds", 4)
    n, f = spec.get("n", 3), spec.get("f", 1)

    node_cls_at, node_kwargs_at = {}, {}
    if kind == "lie":
        position = attack.get("position", 1)
        if not 0 <= position < n:
            raise ValueError(f"lie position {position!r} is not in the chain")
        node_cls_at[position] = LyingMiddle
        node_kwargs_at[position] = {"lie_at_commit": attack.get("commit", 1)}
    cluster = ChainCluster.build(n=n, f=f, seed=seed, node_cls_at=node_cls_at,
                                 node_kwargs_at=node_kwargs_at, clients=2)
    schedule = _fault_schedule(spec)
    if schedule is not None:
        cluster.cluster.net.install_schedule(schedule)

    lines: list[dict] = []
    wrong_accept = False
    correct_commits = set()     # commit indexes client 0 accepted correctly
    for round_id in range(1, rounds + 1):
        key = b"k%d" % round_id
        value = b"v%d" % (round_id * 17)
        req = cluster.run_put(0, round_id, key, value)
        accepted = cluster.clients[0].accepted_value(req)
        if accepted is not None:
            if accepted.endswith(value):
                correct_commits.add(int.from_bytes(accepted[:8], "big"))
            else:
                wrong_accept = True
        lines.append({"round": round_id,
                      "accepted": accepted.hex() if accepted else None})

    flags = [{"accuser": fl.accuser, "position": fl.accused_position,
              "reason": fl.reason} for fl in cluster.all_flags()]
    histories = cluster.commit_histories()
    identical = len({tuple(h) for h in histories.values()}) == 1
    accused = {fl["position"] for fl in flags}
    liar = cluster.nodes[cluster.order[position]] if kind == "lie" else None
    deviated = liar is not None and liar.deviated
    masked = deviated and liar.is_tail and liar.lie_at_commit in correct_commits
    exhausted = len(cluster.cluster.net.exhausted)
    ok = ((bool(flags) or masked if deviated else identical and not flags)
          and not wrong_accept and accused <= set(node_cls_at) and not exhausted)
    lines.append({"protocol": "cr", "flags": flags,
                  "commit_histories": {str(k): v for k, v in histories.items()},
                  "exhausted": exhausted, "masked": masked, "ok": ok})
    return ScenarioResult(ok=ok, lines=lines)


def _run_peerreview(spec: dict, attack: dict, kind: str) -> ScenarioResult:
    seed = spec.get("seed", 0)
    rounds = spec.get("rounds", 4)
    target = attack.get("node", 2) if kind != "none" else None

    child_cls_at, child_kwargs_at = {}, {}
    if kind == "mutate_result":
        child_cls_at[target] = MutatingChild
        child_kwargs_at[target] = {"mutate_round": attack.get("round", 1)}
    scenario = PrScenario.build(seed=seed, n_children=spec.get("children", 2),
                                child_cls_at=child_cls_at,
                                child_kwargs_at=child_kwargs_at)
    if target is not None and target not in scenario.children:
        raise ValueError(f"attack node {target!r} is not a child")
    schedule = _fault_schedule(spec)
    if schedule is not None:
        scenario.cluster.net.install_schedule(schedule)
    commands = [b"cmd-%d" % r for r in range(1, rounds + 1)]
    scenario.run_rounds(commands)
    if kind == "rewrite_log":
        child, seq = scenario.children[target], attack.get("seq", 0)
        if not 0 <= seq < len(child.log):
            raise ValueError(f"rewrite_log seq {seq!r} is not in child {target}'s "
                             f"log of {len(child.log)} entries")
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
    return ScenarioResult(ok=ok, lines=lines)
