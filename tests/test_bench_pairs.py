"""The pair statistics behind a BENCH_*.json record (`tests/bench_pairs.py`)."""

import json

from bench_pairs import judge_claim, parse_run, summarize

RUN_OUTPUT = "\n".join([
    "== bft_clients4 seed=1 untraced: 5 episodes, 1280 requests attempted, 0 failed, "
    "1024 latency samples after the warm-up episode",
    "  setup_s                                 0.0003 s      host lower",
    "  host_req_p99_us                          2067.9 us     host lower",
    "  sim_req_p50_us                             1932 us     sim  lower",
    "  chain.levels_per_req                        n/a count  none lower",
    json.dumps({"correct": True, "attempted": 1280, "failed": 0,
                "metrics": {"host_req_p90_us": {"value": 1803.1, "unit": "us"}}}),
])


def test_parse_run_reads_the_result_line_and_every_printed_metric():
    line, printed = parse_run(RUN_OUTPUT)
    assert line["metrics"]["host_req_p90_us"]["value"] == 1803.1
    assert printed == {
        "episodes": (4, "none"),            # the warm-up episode is not timed
        "setup_s": (0.0003, "host"),
        "host_req_p99_us": (2067.9, "host"),
        "sim_req_p50_us": (1932.0, "sim"),
        "chain.levels_per_req": (None, "none"),
    }


def test_summarize_compares_pair_by_pair_and_applies_the_bound():
    parent = [100.0, 110.0, 120.0, 130.0, 140.0]
    change = [90.0, 115.0, 100.0, 120.0, 125.0]
    out = summarize(parent, change, "lower", bound=0.25)
    assert (out["parent_median"], out["change_median"]) == (120.0, 115.0)
    assert out["change_wins"] == 4 and out["ratio"] == 0.9583
    assert out["parent_quartiles"] == [110.0, 120.0, 130.0] and out["parent_iqr"] == 20.0
    assert out["within_bound"]
    assert not summarize(parent, [v * 1.3 for v in parent], "lower", 0.25)["within_bound"]
    assert summarize(parent, change, "higher")["change_wins"] == 1
    assert "within_bound" not in summarize(parent, change, "higher")


def test_a_claim_needs_the_ratio_nine_of_ten_wins_and_a_gap_beyond_the_iqr():
    parent = [100.0 + i for i in range(10)]
    met = judge_claim(summarize(parent, [v * 0.85 for v in parent], "lower"),
                      0.93, "lower")
    assert met["met"] and met["change_wins"] == "10/10"
    # Wins every pair, but the medians are closer than the parent's IQR.
    close = judge_claim(summarize(parent, [v - 1 for v in parent], "lower"),
                        1.0, "lower")
    assert close["change_wins"] == "10/10" and not close["met"]
    # A large gap won in only 8 of 10 pairs.
    mixed = [v * 0.8 for v in parent[:8]] + [v * 1.2 for v in parent[8:]]
    assert not judge_claim(summarize(parent, mixed, "lower"), 0.93, "lower")["met"]
