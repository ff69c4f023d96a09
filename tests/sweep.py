"""Scenario sweep: run seeded random scenarios and print what each produced.

    PYTHONPATH=src python tests/sweep.py [--corpus] COUNT SEED

prints one JSON line per scenario: the spec, every output line of
`run_scenario`, and the number and SHA-384 of the tags the kernel computed, in
order (as `test_tag_stream` records them). A spec that `run_scenario` rejects
as bad input prints its spec and the ValueError instead. Scenario i is drawn
from its own generator seeded by (SEED, i), so a shorter sweep is a prefix of
a longer one, and two commits are compared by diffing their output.

With --corpus it prints one compact line per scenario instead: the index, `ok`
(or `error` for bad input), the kernel tag count, and the first 16 hex digits
of SHA-384 over the scenario's full JSON line. `sweep_corpus_1000_77.txt` is
that output for `--corpus 1000 77`; `test_sweep` recomputes it, so any change
to any verdict, output line or tag shows up there. A change that moves a
verdict by design regenerates the file:

    PYTHONPATH=src python tests/sweep.py --corpus 1000 77 > tests/sweep_corpus_1000_77.txt

Before it does, keep the old file: `--classify OLD_CORPUS [SEED]` reruns the
sweep of OLD_CORPUS's length (SEED 77 by default) and prints how many corpus
lines changed, per protocol and per field that moved: `ok` split into verdict
flips (true <-> false) and moves to or from `error`, the tag count, and the
digest. Then it prints one line per `ok` move, with its index:

    PYTHONPATH=src python tests/sweep.py --classify old_corpus.txt

The draws cover all three protocols and every attack kind, with attack rounds
and commits up to two past the run, every chain position, and 0-5 wire-fault
actions of any kind.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from attestnet import kernel
from attestnet.scenario import ATTACK_KINDS, run_scenario
from attestnet.simnet import ACTION_KINDS


def _attack(rng: random.Random, protocol: str, spec: dict) -> dict:
    kind = rng.choice(("none", *ATTACK_KINDS[protocol]))
    rounds = spec["rounds"]
    if kind == "none":
        return {}
    if kind in ("equivocate", "wrong_value", "mutate_result"):
        attack = {"round": rng.randint(1, rounds + 2)}
    elif kind == "crash":
        attack = {"node": rng.randint(1, spec["n"]), "after_round": rng.randint(0, rounds)}
    elif kind == "lie":
        attack = {"position": rng.randrange(spec["n"]), "commit": rng.randint(1, rounds + 2)}
    else:   # rewrite_log: a child logs 1 entry a round, so about half the seqs miss
        attack = {"seq": rng.randrange(2 * rounds + 2)}
    if protocol == "peerreview":
        attack["node"] = rng.randint(2, spec["children"] + 1)
    return {"kind": kind, **attack}


def _fault(rng: random.Random) -> dict:
    action = {"kind": rng.choice(ACTION_KINDS), "index": rng.randrange(6)}
    if action["kind"] == "delay":
        action["delay_ns"] = rng.randrange(5_000)
    elif action["kind"] == "tamper":
        action["bit_offset"] = rng.randrange(1_200)
    elif action["kind"] == "replay":
        action["earlier_index"] = rng.randrange(action["index"] + 1)
    return action


def draw(sweep_seed: int, i: int) -> dict:
    """Scenario i of the sweep seeded by sweep_seed."""
    rng = random.Random(f"{sweep_seed}:{i}")
    protocol = rng.choice(sorted(ATTACK_KINDS))
    spec = {"protocol": protocol, "seed": rng.randrange(1_000),
            "rounds": rng.randint(1, 4)}
    if protocol == "bft":
        spec["f"] = rng.randint(0, 2)
        spec["n"] = 2 * spec["f"] + 1
    elif protocol == "cr":
        spec["n"] = rng.randint(1, 5)
        spec["f"] = rng.randrange(spec["n"])
    else:
        spec["children"] = rng.randint(1, 3)
    attack = _attack(rng, protocol, spec)
    if attack:
        spec["attack"] = attack
    actions = [_fault(rng) for _ in range(rng.randint(0, 5))]
    if actions:
        spec["faults"] = {"seed": rng.randrange(1_000), "actions": actions}
    return spec


def run(spec: dict) -> dict:
    """One scenario's output line: its lines and its kernel tag stream."""
    tags = []
    compute_tag = kernel.compute_tag

    def recording(*args):
        tag = compute_tag(*args)
        tags.append(tag)
        return tag

    kernel.compute_tag = recording
    try:
        result = run_scenario(spec)
    except ValueError as exc:
        return {"spec": spec, "error": str(exc)}
    finally:
        kernel.compute_tag = compute_tag
    return {"spec": spec, "lines": result.lines, "ok": result.ok, "tags": len(tags),
            "tag_sha384": hashlib.sha384(b"".join(tags)).hexdigest()}


def sweep(count: int, sweep_seed: int) -> list[str]:
    return [json.dumps(run(draw(sweep_seed, i)), sort_keys=True) for i in range(count)]


def corpus(lines: list[str]) -> list[str]:
    """The compact corpus line of each sweep line (see the module docstring)."""
    out = []
    for i, line in enumerate(lines):
        record = json.loads(line)
        ok = "error" if "error" in record else str(record["ok"]).lower()
        digest = hashlib.sha384(line.encode()).hexdigest()[:16]
        out.append(f"{i} {ok} {record.get('tags', 0)} {digest}")
    return out


def classify(old: list[str], lines: list[str]) -> list[str]:
    """A table of the corpus lines that differ between `old` and the corpus of
    the sweep `lines`: per protocol, how many changed and how many of those
    moved each corpus field, `ok` counted as a verdict flip or an error move;
    then each `ok` move as `flip|error INDEX OLD -> NEW`."""
    fields = ("flip", "error", "tags", "digest")
    moved: dict[str, list[int]] = {}
    moves = []
    for i, (was, line, now) in enumerate(zip(old, lines, corpus(lines))):
        if was == now:
            continue
        (ok_was, *rest_was), (ok_now, *rest_now) = was.split()[1:], now.split()[1:]
        move = ("" if ok_was == ok_now else
                "error" if "error" in (ok_was, ok_now) else "flip")
        counts = moved.setdefault(json.loads(line)["spec"]["protocol"],
                                  [0] * (1 + len(fields)))
        counts[0] += 1
        counts[1] += move == "flip"
        counts[2] += move == "error"
        for k, (a, b) in enumerate(zip(rest_was, rest_now), 3):
            counts[k] += a != b
        if move:
            moves.append(f"{move} {i} {ok_was} -> {ok_now}")
    total = sum(counts[0] for counts in moved.values())
    out = [f"{total} of {len(lines)} corpus lines changed",
           "protocol changed " + " ".join(fields)]
    out += [" ".join(map(str, [protocol, *moved[protocol]])) for protocol in sorted(moved)]
    return out + moves


def main(argv: list[str]) -> int:
    args = argv[1:]
    if args[:1] == ["--classify"] and len(args) in (2, 3):
        old = Path(args[1]).read_text().splitlines()
        seed = int(args[2]) if len(args) == 3 else 77
        print("\n".join(classify(old, sweep(len(old), seed))))
        return 0
    compact = args[:1] == ["--corpus"]
    if compact:
        args = args[1:]
    if len(args) != 2:
        print(f"usage: {argv[0]} [--corpus] COUNT SEED | --classify OLD_CORPUS [SEED]",
              file=sys.stderr)
        return 2
    lines = sweep(int(args[0]), int(args[1]))
    for line in corpus(lines) if compact else lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
