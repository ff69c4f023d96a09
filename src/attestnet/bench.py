"""Benchmark harness with emulated attestation delays.

Every run is in simulated time: every attest/verify event charges the
configured processing delay to a shared deterministic clock, and the wire adds
a base latency plus a per-byte cost. Fixed (seed, config) therefore yields
byte-identical results. Host time is measured by `perfbench/`, not here.
Every run checks its results (each request commits, audits find honest logs
consistent, no frame runs out of retries) and raises BenchCheckFailed if one
does not hold.

Delay presets follow the measured hardware reference points: the trusted-NIC
kernel at 23 us, SGX-style enclaves at 45 us, AMD-SEV at 30 us. Batching
packs k application records into one attested payload, so one attestation
amortizes over the whole batch.
"""

import csv
import itertools
import math
import random
import statistics
from dataclasses import dataclass

from .device import (
    DeviceConfig,
    Endpoint,
    SessionConfig,
    connect,
    pack_batch,
)
from .protocols.a2m import A2mStore
from .protocols.bft import BftCluster
from .protocols.chain import ChainCluster
from .protocols.common import derive_key, log_session
from .protocols.peerreview import PrScenario
from .simnet import Network

DELAY_PRESETS_NS = {
    "none": 0,
    "tnic": 23_000,
    "sgx": 45_000,
    "amdsev": 30_000,
}

PROTOCOLS = ("raw-channel", "a2m", "bft", "cr", "peerreview")

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
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.delay_model not in DELAY_PRESETS_NS:
            raise ValueError(f"unknown delay model {self.delay_model!r}")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")


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


def _check(ok: bool, what: str) -> None:
    # Raised, not asserted, so that the checks hold under `python -O` too.
    if not ok:
        raise BenchCheckFailed(what)


def _check_no_exhausted(net: Network) -> None:
    exhausted = len(net.exhausted)
    _check(not exhausted, f"{exhausted} frame(s) ran out of retries")


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _stats(config: BenchConfig, latencies_ns: list[float],
           elapsed_ns: int, records: int) -> BenchRecord:
    lat_us = [v / 1000.0 for v in latencies_ns]
    seconds = elapsed_ns / 1e9
    return BenchRecord(
        config=config,
        throughput_ops=(records / seconds if seconds > 0
                        else math.inf if records else 0.0),
        latency_mean_us=statistics.fmean(lat_us) if lat_us else 0.0,
        latency_median_us=statistics.median(lat_us) if lat_us else 0.0,
        latency_p99_us=_percentile(lat_us, 0.99),
        elapsed_sim_us=elapsed_ns / 1000.0,
    )


def _measure(config: BenchConfig, clock, submit) -> BenchRecord:
    """Submit batches of fresh random records until `config.requests` records
    are through; each record's latency is its batch's time in `submit`."""
    rng = random.Random(config.seed)
    latencies: list[float] = []
    start = clock.now_ns
    done = 0
    while done < config.requests:
        records = [rng.randbytes(config.payload) for _ in range(config.batch)]
        t0 = clock.now_ns
        submit(records)
        latencies.extend([clock.now_ns - t0] * len(records))
        done += len(records)
    return _stats(config, latencies, clock.now_ns - start, done)


def _bench_raw_channel(config: BenchConfig) -> BenchRecord:
    net = Network()
    key = derive_key(config.seed, 1)
    delay = DELAY_PRESETS_NS[config.delay_model]
    cfg_a = DeviceConfig(device=1, sessions=[SessionConfig(1, 2, key)],
                         attest_delay_ns=delay)
    cfg_b = DeviceConfig(device=2, sessions=[SessionConfig(1, 1, key)],
                         attest_delay_ns=delay)
    net.declare_device(1)
    net.declare_device(2)
    sender = connect(cfg_a, net)
    receiver = connect(cfg_b, net)

    def submit(records):
        sender.auth_send(1, pack_batch(records))
        net.run_until_quiescent()
        _check(receiver.poll(1), "reliable channel must deliver")
    record = _measure(config, net.clock, submit)
    _check_no_exhausted(net)
    return record


def _bench_a2m(config: BenchConfig) -> BenchRecord:
    delay = DELAY_PRESETS_NS[config.delay_model]
    device = 1
    manifest = log_session(0xFF)
    sessions = [SessionConfig(log_session(device), device,
                              derive_key(config.seed, log_session(device)), log=True),
                SessionConfig(manifest, device, derive_key(config.seed, manifest),
                              log=True)]
    endpoint = Endpoint(DeviceConfig(device=device, sessions=sessions,
                                     attest_delay_ns=delay))
    store = A2mStore(endpoint, manifest_log=manifest)
    log_id = log_session(device)
    return _measure(config, endpoint.clock,
                    lambda records: store.append(log_id, pack_batch(records)))


def _bench_bft(config: BenchConfig) -> BenchRecord:
    cluster = BftCluster.build(n=3, f=1, seed=config.seed,
                               attest_delay_ns=DELAY_PRESETS_NS[config.delay_model])
    client = cluster.clients[0]
    round_ids = itertools.count()

    def submit(records):
        req = cluster.run_request(0, next(round_ids), pack_batch(records))
        _check(client.accepted_value(req) is not None, "honest round must commit")
    record = _measure(config, cluster.cluster.net.clock, submit)
    _check_no_exhausted(cluster.cluster.net)
    return record


def _bench_cr(config: BenchConfig) -> BenchRecord:
    cluster = ChainCluster.build(n=3, f=1, seed=config.seed,
                                 attest_delay_ns=DELAY_PRESETS_NS[config.delay_model])
    client = cluster.clients[0]
    round_ids = itertools.count()

    def submit(records):
        round_id = next(round_ids)
        key = b"k%08d" % (round_id % 128)
        req = cluster.run_put(0, round_id, key, pack_batch(records))
        _check(client.accepted_value(req) is not None, "honest chain must commit")
    record = _measure(config, cluster.cluster.net.clock, submit)
    _check_no_exhausted(cluster.cluster.net)
    return record


def _bench_peerreview(config: BenchConfig) -> BenchRecord:
    delay = DELAY_PRESETS_NS[config.delay_model]
    scenario = PrScenario.build(seed=config.seed, n_children=2)
    for endpoint in scenario.cluster.endpoints.values():
        endpoint.config.attest_delay_ns = delay
    record = _measure(config, scenario.cluster.net.clock,
                      lambda records: scenario.run_rounds([pack_batch(records)]))
    verdicts = scenario.audit_all()
    _check(all(v.consistent for v in verdicts.values()),
           "honest audit must find every log consistent")
    _check_no_exhausted(scenario.cluster.net)
    return record


def run_bench(config: BenchConfig) -> BenchRecord:
    runner = {
        "raw-channel": _bench_raw_channel,
        "a2m": _bench_a2m,
        "bft": _bench_bft,
        "cr": _bench_cr,
        "peerreview": _bench_peerreview,
    }[config.protocol]
    return runner(config)


def append_csv(path: str, record: BenchRecord) -> None:
    import os

    new_file = not os.path.exists(path)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(CSV_HEADER)
        writer.writerow(record.csv_row())

