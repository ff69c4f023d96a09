"""Benchmark harness: option validation and degenerate timings."""

import math

import pytest

from attestnet.bench import BenchConfig, run_bench


@pytest.mark.parametrize("protocol", ["bft", "cr", "peerreview"])
def test_wallclock_rejected_where_runner_has_only_simulated_time(protocol):
    with pytest.raises(ValueError) as err:
        run_bench(BenchConfig(protocol=protocol, requests=2, wallclock=True))
    message = str(err.value)
    assert protocol in message
    assert "raw-channel" in message and "a2m" in message and "socket" in message


@pytest.mark.parametrize("protocol", ["raw-channel", "a2m"])
def test_wallclock_runs_where_supported(protocol):
    record = run_bench(BenchConfig(protocol=protocol, requests=2,
                                   wallclock=True))
    assert record.elapsed_sim_us > 0


def test_zero_simulated_time_gives_infinite_throughput():
    record = run_bench(BenchConfig(protocol="a2m", delay_model="none",
                                   requests=4))
    assert record.elapsed_sim_us == 0
    assert record.throughput_ops == math.inf
    assert record.csv_row()[7] == "inf"
