"""Benchmark front end: one judged scenario run per configuration.

`run_bench` runs the scenario spec of requests / batch rounds, each of one
body of `batch` records of `payload` bytes (see `scenario`), at the preset's
attest delay. Every run is in simulated time: every attest/verify event
charges the configured processing delay to a shared deterministic clock, and
the wire adds a base latency plus a per-byte cost. Fixed (seed, config)
therefore yields byte-identical results. Host time is measured by
`perfbench/`, not here. `run_bench` returns the run's CSV row under
CSV_HEADER, or raises BenchCheckFailed if the run is not ok or a round's
client accepted nothing. It checks only that `batch` is at least 1 and
`requests` a positive multiple of it: argparse's choices check the protocol
and the delay preset, and `run_scenario` the rest of the spec.

Delay presets follow the measured hardware reference points: the trusted-NIC
kernel at 23 us, SGX-style enclaves at 45 us, AMD-SEV at 30 us. Batching
packs k application records into one attested payload, so one attestation
amortizes over the whole batch.
"""

import csv
import json
import math
import os
import statistics

from .scenario import run_scenario

DELAY_PRESETS_NS = {
    "none": 0,
    "tnic": 23_000,
    "sgx": 45_000,
    "amdsev": 30_000,
}

CSV_HEADER = [
    "protocol", "delay_model", "batch", "payload", "requests", "transport",
    "seed", "throughput_ops", "latency_mean_us", "latency_median_us",
    "latency_p99_us", "elapsed_sim_us",
]


class BenchCheckFailed(Exception):
    """A run produced a wrong result, so its numbers mean nothing."""


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def run_bench(*, protocol: str, delay_model: str, batch: int, payload: int,
              requests: int, seed: int) -> list[str]:
    """One judged run's CSV row, under CSV_HEADER."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if requests < 1 or requests % batch:
        raise ValueError(f"requests must be a positive multiple of batch "
                         f"{batch}, got {requests}")
    result = run_scenario({
        "protocol": protocol, "seed": seed, "rounds": requests // batch,
        "batch": batch, "payload": payload,
        "attest_delay_ns": DELAY_PRESETS_NS[delay_model],
    })
    if not result.ok:
        raise BenchCheckFailed(
            f"the run is not ok: {json.dumps(result.lines[-1], sort_keys=True)}")
    if result.stalled:
        raise BenchCheckFailed(f"no value accepted in {len(result.stalled)} round(s), "
                               f"the first is round {result.stalled[0]}")
    # Each record's latency is its round's.
    lat_us = [v / 1000.0 for v in result.latencies_ns for _ in range(batch)]
    seconds = result.elapsed_ns / 1e9
    throughput_ops = requests / seconds if seconds > 0 else math.inf
    # The transport column is always "sim"; it stays so that CSV files
    # written before and after keep one header and comparable rows.
    return [
        protocol, delay_model, str(batch), str(payload), str(requests), "sim",
        str(seed), f"{throughput_ops:.3f}", f"{statistics.fmean(lat_us):.3f}",
        f"{statistics.median(lat_us):.3f}", f"{_percentile(lat_us, 0.99):.3f}",
        f"{result.elapsed_ns / 1000.0:.3f}",
    ]


def append_csv(path: str, row: list[str]) -> None:
    new_file = not os.path.exists(path)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(CSV_HEADER)
        writer.writerow(row)
