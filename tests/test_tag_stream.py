"""Guard: the exact stream of tags the kernel computes under an adversary.

Each protocol runs once, seeded, under a schedule that fires one action of
every fault kind. The SHA-384 over every tag the kernel computes, in order,
and their number are pinned from a known-good run, so a faster tag path (or
any other change) that alters one tag, drops one or adds one shows here.
"""

import hashlib

import pytest

from attestnet import kernel
from attestnet.scenario import run_scenario
from attestnet.simnet import ACTION_KINDS

# Indices are per (session, sender) stream and match any stream, so each
# action fires on the first stream that reaches its index.
FAULTS = {"seed": 3, "actions": [
    {"kind": "drop", "index": 0},
    {"kind": "duplicate", "index": 1},
    {"kind": "delay", "index": 1, "delay_ns": 900},
    {"kind": "reorder", "index": 2},
    {"kind": "tamper", "index": 2},
    {"kind": "replay", "index": 3, "earlier_index": 1},
    {"kind": "forge", "index": 3},
]}

# protocol -> (spec, tags computed, SHA-384 of the tags in order)
PINNED = {
    "bft": ({"protocol": "bft", "n": 3, "f": 1, "seed": 1, "rounds": 4}, 88,
            "c31f51eabdc820e84a0d33a6c3af44fc042df5bb5a807c99560e22a938cba909"
            "18f95ce112c8e1bcc02c0598094e6907"),
    "cr": ({"protocol": "cr", "n": 5, "f": 2, "seed": 1, "rounds": 4}, 96,
           "b43ec08736f89e32b4a28793f62ded01407bcd04da2f57ddfe3414127f52bcad"
           "b96935ed2bfdf2bc72c2de287d9c0e93"),
    "peerreview": ({"protocol": "peerreview", "children": 3, "seed": 1,
                    "rounds": 4}, 128,
                   "61faee4a8c66b376a2589768ba629000dd9e6da61737be40cd869c57"
                   "b8bb956ccc451a106e51ab0dfe395ff086ccd214"),
}


def test_schedule_has_one_action_of_each_kind():
    assert sorted(a["kind"] for a in FAULTS["actions"]) == sorted(ACTION_KINDS)


@pytest.mark.parametrize("protocol", sorted(PINNED))
def test_tag_stream_pinned(protocol, monkeypatch):
    spec, count, digest = PINNED[protocol]
    tags = []
    compute_tag = kernel.compute_tag

    def recording(*args):
        tag = compute_tag(*args)
        tags.append(tag)
        return tag

    monkeypatch.setattr(kernel, "compute_tag", recording)
    result = run_scenario({**spec, "faults": FAULTS})
    assert result.ok
    assert len(tags) == count
    assert hashlib.sha384(b"".join(tags)).hexdigest() == digest
