"""Guard: the exact flags the BFT replicas raise against a Byzantine leader.

Each attack runs once, seeded, under `test_tag_stream`'s schedule that fires
one action of every fault kind. The ordered (accuser, accused, reason,
detail) flags are pinned from a known-good run, so a change that moves,
drops, adds or rewords one flag shows here.
"""

import pytest

from attestnet.protocols.bft import BftCluster
from attestnet.scenario import run_scenario
from test_tag_stream import FAULTS, PINNED

# attack kind -> the flags in the order BftCluster.all_flags lists them
PINNED_FLAGS = {
    "equivocate": [
        (2, 1, "equivocation", "expected counter 2, got 3"),
        (3, 1, "equivocation", "expected counter 1, got 2"),
    ],
    "wrong_value": [
        (2, 1, "state-mismatch", "expected 0000000000000002, got 0000000000000009"),
        (3, 1, "state-mismatch", "expected 0000000000000002, got 0000000000000009"),
    ],
}


@pytest.mark.parametrize("kind", sorted(PINNED_FLAGS))
def test_flag_stream_pinned(kind, monkeypatch):
    runs = []
    all_flags = BftCluster.all_flags

    def recording(self):
        flags = all_flags(self)
        runs.append([(fl.accuser, fl.accused, fl.reason, fl.detail) for fl in flags])
        return flags

    monkeypatch.setattr(BftCluster, "all_flags", recording)
    spec, _, _ = PINNED["bft"]
    result = run_scenario({**spec, "attack": {"kind": kind, "round": 2},
                           "faults": FAULTS})
    assert result.ok
    assert runs == [PINNED_FLAGS[kind]]
