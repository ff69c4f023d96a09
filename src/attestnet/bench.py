"""Benchmark front end: one judged scenario run per configuration.

`run_bench` runs the scenario spec of requests / batch rounds, each of one
body of `batch` records of `payload` bytes (see `scenario`), at the preset's
attest delay. Every run is in simulated time: every attest/verify event
charges the configured processing delay to a shared deterministic clock, and
the wire adds a base latency plus a per-byte cost. Fixed (seed, config)
therefore yields byte-identical results. Host time is measured by
`perfbench/`, not here. If the run is not ok, or a round's client accepted
nothing, `run_bench` raises BenchCheckFailed instead of returning a row.

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
from dataclasses import dataclass

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


@dataclass
class BenchConfig:
    protocol: str = "raw-channel"
    delay_model: str = "tnic"
    batch: int = 1
    payload: int = 64
    requests: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.delay_model not in DELAY_PRESETS_NS:
            raise ValueError(f"unknown delay model {self.delay_model!r}")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.requests < 1 or self.requests % self.batch:
            raise ValueError(f"requests must be a positive multiple of batch "
                             f"{self.batch}, got {self.requests}")


@dataclass
class BenchRecord:
    config: BenchConfig
    throughput_ops: float
    latency_mean_us: float
    latency_median_us: float
    latency_p99_us: float
    elapsed_sim_us: float

    def csv_row(self) -> list[str]:
        c = self.config
        # The transport column is always "sim"; it stays so that CSV files
        # written before and after keep one header and comparable rows.
        return [
            c.protocol, c.delay_model, str(c.batch), str(c.payload),
            str(c.requests), "sim", str(c.seed),
            f"{self.throughput_ops:.3f}", f"{self.latency_mean_us:.3f}",
            f"{self.latency_median_us:.3f}", f"{self.latency_p99_us:.3f}",
            f"{self.elapsed_sim_us:.3f}",
        ]


class BenchCheckFailed(Exception):
    """A run produced a wrong result, so its numbers mean nothing."""


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def run_bench(config: BenchConfig) -> BenchRecord:
    result = run_scenario({
        "protocol": config.protocol, "seed": config.seed,
        "rounds": config.requests // config.batch, "batch": config.batch,
        "payload": config.payload,
        "attest_delay_ns": DELAY_PRESETS_NS[config.delay_model],
    })
    if not result.ok:
        raise BenchCheckFailed(
            f"the run is not ok: {json.dumps(result.lines[-1], sort_keys=True)}")
    if result.stalled:
        raise BenchCheckFailed(f"no value accepted in {len(result.stalled)} round(s), "
                               f"the first is round {result.stalled[0]}")
    # Each record's latency is its round's.
    lat_us = [v / 1000.0 for v in result.latencies_ns for _ in range(config.batch)]
    seconds = result.elapsed_ns / 1e9
    return BenchRecord(
        config=config,
        throughput_ops=config.requests / seconds if seconds > 0 else math.inf,
        latency_mean_us=statistics.fmean(lat_us),
        latency_median_us=statistics.median(lat_us),
        latency_p99_us=_percentile(lat_us, 0.99),
        elapsed_sim_us=result.elapsed_ns / 1000.0,
    )


def append_csv(path: str, record: BenchRecord) -> None:
    new_file = not os.path.exists(path)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(CSV_HEADER)
        writer.writerow(record.csv_row())
