"""Benchmark harness with emulated attestation delays.

The default mode runs entirely in simulated time: every attest/verify event
charges the configured processing delay to a shared deterministic clock, and
the wire adds a base latency plus a per-byte cost. Fixed (seed, config)
therefore yields byte-identical results. A wall-clock mode burns real CPU
per event (busy waits) for fidelity runs; it is excluded from any
deterministic assertion.

Delay presets follow the measured hardware reference points: the trusted-NIC
kernel at 23 us, SGX-style enclaves at 45 us, AMD-SEV at 30 us. Batching
packs k application records into one attested payload, so one attestation
amortizes over the whole batch.
"""

import csv
import math
import random
import statistics
import threading
from dataclasses import dataclass, field

from .device import (
    BusyWaitClock,
    DeviceConfig,
    Endpoint,
    SessionConfig,
    SimClock,
    connect,
    pack_batch,
)
from .protocols.a2m import A2mStore
from .protocols.bft import BftCluster
from .protocols.chain import ChainCluster
from .protocols.common import derive_key, log_session
from .protocols.peerreview import PrScenario
from .simnet import Network, real_socket_bridge

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
    transport: str = "sim"
    seed: int = 0
    delay_ns: int | None = None       # explicit override beats the preset
    wallclock: bool = False

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.delay_model not in DELAY_PRESETS_NS and self.delay_ns is None:
            raise ValueError(f"unknown delay model {self.delay_model!r}")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.transport not in ("sim", "socket"):
            raise ValueError("transport must be sim or socket")

    @property
    def effective_delay_ns(self) -> int:
        if self.delay_ns is not None:
            return self.delay_ns
        return DELAY_PRESETS_NS[self.delay_model]


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
        return [
            c.protocol, c.delay_model, str(c.batch), str(c.payload),
            str(c.requests), c.transport, str(c.seed),
            f"{self.throughput_ops:.3f}", f"{self.latency_mean_us:.3f}",
            f"{self.latency_median_us:.3f}", f"{self.latency_p99_us:.3f}",
            f"{self.elapsed_sim_us:.3f}",
        ]


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


def _make_records(config: BenchConfig, rng: random.Random) -> list[bytes]:
    return [rng.randbytes(config.payload) for _ in range(config.batch)]


def _bench_raw_channel(config: BenchConfig) -> BenchRecord:
    rng = random.Random(config.seed)
    clock = BusyWaitClock() if config.wallclock else SimClock()
    net = Network(clock=clock)
    key = derive_key(config.seed, 1)
    delay = config.effective_delay_ns
    cfg_a = DeviceConfig(device=1, sessions=[SessionConfig(1, 2, key)],
                         attest_delay_ns=delay)
    cfg_b = DeviceConfig(device=2, sessions=[SessionConfig(1, 1, key)],
                         attest_delay_ns=delay)
    net.declare_device(1)
    net.declare_device(2)
    sender = connect(cfg_a, net)
    receiver = connect(cfg_b, net)

    latencies: list[float] = []
    start = clock.now_ns
    done = 0
    while done < config.requests:
        records = _make_records(config, rng)
        t0 = clock.now_ns
        sender.auth_send(1, pack_batch(records))
        net.run_until_quiescent()
        got = receiver.poll(1)
        assert got, "reliable channel must deliver"
        dt = clock.now_ns - t0
        latencies.extend([dt] * len(records))
        done += len(records)
    return _stats(config, latencies, clock.now_ns - start, done)


def _bench_raw_socket(config: BenchConfig) -> BenchRecord:
    """Loopback sockets, wall-clock timing; one reader task per connection."""
    import time

    rng = random.Random(config.seed)
    key = derive_key(config.seed, 1)
    delay = config.effective_delay_ns
    cfg_a = DeviceConfig(device=1, sessions=[SessionConfig(1, 2, key)],
                         attest_delay_ns=delay if config.wallclock else 0)
    cfg_b = DeviceConfig(device=2, sessions=[SessionConfig(1, 1, key)],
                         attest_delay_ns=delay if config.wallclock else 0)
    sender = Endpoint(cfg_a, clock=BusyWaitClock() if config.wallclock else SimClock())
    receiver = Endpoint(cfg_b, clock=BusyWaitClock() if config.wallclock else SimClock())

    server = real_socket_bridge(receiver, ("127.0.0.1", 0), listen=True)
    addr = server._listener.getsockname()
    accept_thread = threading.Thread(target=server.accept, daemon=True)
    accept_thread.start()
    client = real_socket_bridge(sender, addr)
    accept_thread.join()

    latencies: list[float] = []
    start = time.monotonic_ns()
    done = 0
    try:
        while done < config.requests:
            records = _make_records(config, rng)
            t0 = time.monotonic_ns()
            sender.auth_send(1, pack_batch(records))
            while not receiver.poll(1):
                time.sleep(0)
            dt = time.monotonic_ns() - t0
            latencies.extend([dt] * len(records))
            done += len(records)
        return _stats(config, latencies, time.monotonic_ns() - start, done)
    finally:
        client.close()
        server.close()


def _bench_a2m(config: BenchConfig) -> BenchRecord:
    rng = random.Random(config.seed)
    delay = config.effective_delay_ns
    device = 1
    manifest = log_session(0xFF)
    sessions = [SessionConfig(log_session(device), device,
                              derive_key(config.seed, log_session(device))),
                SessionConfig(manifest, device, derive_key(config.seed, manifest))]
    clock = BusyWaitClock() if config.wallclock else SimClock()
    endpoint = Endpoint(DeviceConfig(device=device, sessions=sessions,
                                     attest_delay_ns=delay), clock=clock)
    store = A2mStore(endpoint, manifest_log=manifest)
    log_id = log_session(device)

    latencies: list[float] = []
    start = clock.now_ns
    done = 0
    while done < config.requests:
        records = _make_records(config, rng)
        t0 = clock.now_ns
        store.append(log_id, pack_batch(records))
        dt = clock.now_ns - t0
        latencies.extend([dt] * len(records))
        done += len(records)
    return _stats(config, latencies, clock.now_ns - start, done)


def _bench_bft(config: BenchConfig) -> BenchRecord:
    rng = random.Random(config.seed)
    delay = config.effective_delay_ns
    cluster = BftCluster.build(n=3, f=1, seed=config.seed,
                               attest_delay_ns=delay)
    clock = cluster.cluster.net.clock
    client = cluster.clients[0]

    latencies: list[float] = []
    start = clock.now_ns
    done = 0
    round_id = 0
    while done < config.requests:
        records = _make_records(config, rng)
        t0 = clock.now_ns
        req = client.issue(round_id, pack_batch(records))
        cluster.replicas[cluster.leader_id].leader_handle(req)
        cluster.drain()
        assert client.accepted_value(req) is not None, "honest round must commit"
        dt = clock.now_ns - t0
        latencies.extend([dt] * len(records))
        done += len(records)
        round_id += 1
    return _stats(config, latencies, clock.now_ns - start, done)


def _bench_cr(config: BenchConfig) -> BenchRecord:
    rng = random.Random(config.seed)
    delay = config.effective_delay_ns
    cluster = ChainCluster.build(n=3, f=1, seed=config.seed,
                                 attest_delay_ns=delay)
    clock = cluster.cluster.net.clock
    client = cluster.clients[0]

    latencies: list[float] = []
    start = clock.now_ns
    done = 0
    round_id = 0
    while done < config.requests:
        records = _make_records(config, rng)
        t0 = clock.now_ns
        key = b"k%08d" % (round_id % 128)
        req = cluster.run_put(0, round_id, key, pack_batch(records))
        assert client.accepted_value(req) is not None, "honest chain must commit"
        dt = clock.now_ns - t0
        latencies.extend([dt] * len(records))
        done += len(records)
        round_id += 1
    return _stats(config, latencies, clock.now_ns - start, done)


def _bench_peerreview(config: BenchConfig) -> BenchRecord:
    rng = random.Random(config.seed)
    delay = config.effective_delay_ns
    scenario = PrScenario.build(seed=config.seed, n_children=2)
    for endpoint in scenario.cluster.endpoints.values():
        endpoint.config.attest_delay_ns = delay
        endpoint.config.verify_delay_ns = delay
    clock = scenario.cluster.net.clock

    latencies: list[float] = []
    start = clock.now_ns
    done = 0
    while done < config.requests:
        records = _make_records(config, rng)
        t0 = clock.now_ns
        scenario.run_rounds([pack_batch(records)])
        dt = clock.now_ns - t0
        latencies.extend([dt] * len(records))
        done += len(records)
    verdicts = scenario.audit_all()
    assert all(v.consistent for v in verdicts.values())
    return _stats(config, latencies, clock.now_ns - start, done)


WALLCLOCK_PROTOCOLS = ("raw-channel", "a2m")


def run_bench(config: BenchConfig) -> BenchRecord:
    if (config.wallclock and config.transport == "sim"
            and config.protocol not in WALLCLOCK_PROTOCOLS):
        raise ValueError(
            f"--wallclock is not supported for {config.protocol}; it is "
            f"supported for {', '.join(WALLCLOCK_PROTOCOLS)} and the socket "
            f"transport")
    if config.transport == "socket":
        if config.protocol != "raw-channel":
            raise ValueError("socket transport supports raw-channel only")
        return _bench_raw_socket(config)
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

