"""Guard: the Python-level work one scenario run does, counted, not timed.

One 32-round spec per protocol, and one PeerReview spec under a fault
schedule, run through `run_scenario` under cProfile, and the calls of
Python-level functions, built-ins excluded, are pinned exactly. They are
summed over cProfile's raw entries, one per code object: `pstats` keys a
function by (file, line, name), and every dataclass `__init__` is
("<string>", 2, "__init__"), so its table keeps one of them, which one
depending on the process's memory layout. The cyclic garbage
collector is off while it counts: a collection would run whatever callbacks
and finalizers other code left behind (hypothesis registers a gc callback).
The count is then deterministic: it does not move between runs, with the
order of imports or of the tests before it, or across PYTHONHASHSEED
values, so a change that adds one call per frame, per request or per round
shows here, where host time could not tell it from noise. Reproduce a pin
with

    PYTHONPATH=src python tests/test_work_budget.py

A change that moves a count updates its pin, and says why, with both values.
Counts are per CPython minor version (3.12 inlines comprehensions, PEP 709),
so another version skips instead of guessing.
"""

import cProfile
import gc
import sys

import pytest

from attestnet.protocols.common import transport_session
from attestnet.scenario import run_scenario
from attestnet.simnet import ACTION_KINDS

RECORDED_ON = (3, 11)

# One action of each kind on the root's stream to child 2, at indexes 2, 5, ..., 20:
# the adversary's path (`Network._observe`, `_next_action`, retransmission).
ONE_OF_EACH_KIND = {"actions": [
    {"kind": kind, "session": transport_session(1, 2), "sender": 1,
     "index": 2 + 3 * i} for i, kind in enumerate(ACTION_KINDS)]}

# name -> (spec, Python-level calls of one run)
PINNED = {
    "bft": ({"protocol": "bft", "rounds": 32, "payload": 64}, 10099),
    "cr": ({"protocol": "cr", "n": 5, "f": 2, "rounds": 32, "batch": 16,
            "payload": 256}, 13122),
    "peerreview": ({"protocol": "peerreview", "children": 3, "rounds": 32,
                    "payload": 64}, 10641),
    "peerreview-faulted": ({"protocol": "peerreview", "children": 3, "rounds": 32,
                            "payload": 64, "faults": ONE_OF_EACH_KIND}, 10870),
    "a2m": ({"protocol": "a2m", "rounds": 32, "payload": 64}, 662),
    "raw-channel": ({"protocol": "raw-channel", "rounds": 32, "payload": 64}, 842),
}


def counted_call(function, *args):
    """(function(*args), the Python-level calls that call makes)."""
    profile = cProfile.Profile()
    gc.collect()
    gc.disable()
    profile.enable()
    try:
        result = function(*args)
    finally:
        profile.disable()
        gc.enable()
    # A built-in's entry names it with a string, a Python function's with its code.
    return result, sum(entry.callcount for entry in profile.getstats()
                       if not isinstance(entry.code, str))


def python_calls(spec: dict) -> int:
    """The Python-level calls one `run_scenario(spec)` makes; the run must be ok."""
    result, calls = counted_call(run_scenario, spec)
    assert result.ok
    return calls


@pytest.mark.skipif(sys.version_info[:2] != RECORDED_ON,
                    reason=f"calls are pinned for CPython {RECORDED_ON[0]}.{RECORDED_ON[1]} only")
@pytest.mark.parametrize("name", PINNED)
def test_python_calls_per_run_are_pinned(name):
    spec, calls = PINNED[name]
    assert python_calls(spec) == calls


if __name__ == "__main__":
    for name, (spec, _) in PINNED.items():
        print(name, python_calls(spec))
