"""Benchmark harness: degenerate timings and pinned simulated rows."""

import pytest

from attestnet.bench import CSV_HEADER, run_bench


def test_zero_simulated_time_gives_infinite_throughput():
    row = dict(zip(CSV_HEADER, run_bench(
        protocol="a2m", delay_model="none", batch=1, payload=64, requests=4, seed=0)))
    assert row["elapsed_sim_us"] == "0.000"
    assert row["throughput_ops"] == "inf"


# `attestnet bench --requests 64` at the tnic preset and seed 0. The numbers
# are simulated time, so any change to them is a change in behaviour.
GOLDEN_ROWS = [
    "raw-channel,tnic,1,64,64,sim,0,20915.251,47.812,47.812,47.812,3059.968",
    "raw-channel,tnic,16,64,64,sim,0,320950.012,49.852,49.852,49.852,199.408",
    "a2m,tnic,1,64,64,sim,0,43478.261,23.000,23.000,23.000,1472.000",
    "a2m,tnic,16,64,64,sim,0,695652.174,23.000,23.000,23.000,92.000",
    "bft,tnic,1,64,64,sim,0,2070.393,483.000,483.000,483.000,30912.000",
    "bft,tnic,16,64,64,sim,0,33126.294,483.000,483.000,483.000,1932.000",
    "cr,tnic,1,64,64,sim,0,4257.674,234.870,234.870,234.870,15031.680",
    "cr,tnic,16,64,64,sim,0,66959.615,238.950,238.950,238.950,955.800",
    "peerreview,tnic,1,64,64,sim,0,3623.188,276.000,276.000,276.000,17664.000",
    "peerreview,tnic,16,64,64,sim,0,57971.014,276.000,276.000,276.000,1104.000",
]


@pytest.mark.parametrize("row", GOLDEN_ROWS,
                         ids=lambda row: "-batch".join(row.split(",")[:3:2]))
def test_simulated_rows_unchanged(row):
    protocol, _, batch = row.split(",")[:3]
    assert ",".join(run_bench(protocol=protocol, delay_model="tnic", batch=int(batch),
                              payload=64, requests=64, seed=0)) == row
