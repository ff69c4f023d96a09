"""Per-layer tracing from outside the program.

`traced_layers()` replaces each layer's public entry points with a wrapper
that records a span: name, start, end, parent span and request. Module
functions are replaced under every name an attestnet module binds them to;
methods are replaced on their class. Everything is put back on exit.

Spans stay in memory; `write_jsonl` writes them out when the run ends.
A span's self time is its duration minus the durations of its child spans.
"""

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from attestnet import kernel, wire
from attestnet.device import Endpoint
from attestnet.protocols import chain, logchain
from attestnet.protocols.bft import BftCluster, BftReplica
from attestnet.protocols.chain import ChainCluster, ChainNode
from attestnet.protocols.common import QuorumClient, ReplyKeyring, decode_request
from attestnet.protocols.logchain import TamperEvidentLog
from attestnet.protocols.peerreview import PrChild, PrRoot, PrScenario, Witness
from attestnet.simnet import Network


class Tracer:
    """In-memory span store plus counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start ns, end ns, parent, req]
        self.counts: dict[str, int] = defaultdict(int)
        self.episode = 0
        self.req = None                 # request most recently issued
        self._stack = [-1]

    def wrap(self, name, fn, probe=None):
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns
        before, after = probe if probe else (None, None)
        counts = self.counts
        request_of = REQUEST_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if request_of:
                self.req = f"{self.episode}:{request_of(args)}"
            state = before(args) if before else None
            span = [name, 0, 0, stack[-1], self.req]
            stack.append(len(spans))
            spans.append(span)
            result, raised = None, True
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                span[2] = now()
                stack.pop()
                if after:
                    after(counts, state, args, result, raised)
        return traced

    def self_times(self) -> list[int]:
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def write_jsonl(self, path) -> None:
        """Gzipped JSONL, one span a line; times in ns from the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "req": req}) + "\n")


# -- probes: (before(args) -> state, after(counts, state, args, result, raised)) --

def _count(key, size):
    def after(counts, _state, args, _result, raised):
        if not raised:
            counts[key] += size(args)
    return None, after


def _on_raise(key):
    def after(counts, _state, _args, _result, raised):
        if raised:
            counts[key] += 1
    return None, after


def _device(reject_when_false=False):
    """Simulated time the endpoint charged, plus rejections."""
    def before(args):
        return args[0].clock.now_ns

    def after(counts, state, args, result, raised):
        counts["device.sim_charge_ns"] += args[0].clock.now_ns - state
        if raised or (reject_when_false and result is False):
            counts["device.rejected"] += 1
    return before, after


def _falsy(key):
    def after(counts, _state, _args, result, raised):
        if not raised and not result:
            counts[key] += 1
    return None, after


def _audited():
    def before(args):
        return args[0].audited_seq

    def after(counts, state, args, _result, _raised):
        counts["peerreview.audit_entries"] += args[0].audited_seq - state
    return before, after


def _levels():
    def after(counts, _state, _args, result, raised):
        if not raised:
            counts["chain.levels"] += len(result[1])
    return None, after


# (span name, owner, attribute, probe); the span name's prefix is its layer.
ENTRY_POINTS = [
    ("kernel.compute_tag", kernel, "compute_tag",
     _count("kernel.tag_bytes",
            lambda a: len(a[1]) + kernel.DEVICE_WIRE_LEN + kernel.COUNTER_WIRE_LEN)),
    ("kernel.attest_with", kernel, "attest_with", None),
    ("kernel.verify_with", kernel, "verify_with", _on_raise("kernel.rejects")),
    ("kernel.tag_matches", kernel.AttestationKernel, "tag_matches", None),
    ("wire.encode_frame", wire, "encode_frame", None),
    ("wire.decode_frame", wire, "decode_frame",
     _count("wire.decode_bytes", lambda a: len(a[0]))),
    ("device.auth_send", Endpoint, "auth_send", _device()),
    ("device.local_send", Endpoint, "local_send", _device()),
    ("device.local_verify", Endpoint, "local_verify", _device()),
    ("device.deliver_frame", Endpoint, "deliver_frame", _device(True)),
    ("device.poll", Endpoint, "poll", _falsy("device.empty_polls")),
    ("simnet.submit", Network, "submit",
     _count("simnet.submit_bytes", lambda a: len(a[4]))),
    ("simnet.step", Network, "step", _falsy("simnet.idle_steps")),
    ("common.sign", ReplyKeyring, "sign", None),
    ("common.check", ReplyKeyring, "check", None),
    ("common.deliver", QuorumClient, "deliver", None),
    ("logchain.append", TamperEvidentLog, "append", None),
    ("logchain.chain_digest", logchain, "chain_digest", None),
    ("bft.leader_handle", BftReplica, "leader_handle", None),
    ("bft.step", BftReplica, "step", _falsy("bft.idle_steps")),
    ("bft.drain", BftCluster, "drain", None),
    ("chain.head_handle", ChainNode, "head_handle", None),
    ("chain.middle_tail_handle", ChainNode, "middle_tail_handle", None),
    ("chain.validate_chain", ChainNode, "validate_chain", None),
    ("chain.peel_poe", chain, "peel_poe", _levels()),
    ("chain.step", ChainNode, "step", _falsy("chain.idle_steps")),
    ("chain.drain", ChainCluster, "drain", None),
    ("peerreview.send", PrRoot, "send", None),
    ("peerreview.step", PrRoot, "step", _falsy("peerreview.idle_steps")),
    ("peerreview.step", PrChild, "step", _falsy("peerreview.idle_steps")),
    ("peerreview.drain", PrScenario, "drain", None),
    ("peerreview.audit", Witness, "audit", _audited()),
]

def _client_request(args) -> str:
    client, req_id, _ = decode_request(args[1])
    return f"{client}.{req_id}"


# Spans where a request enters the system name the request; every span
# records the request most recently entered.
REQUEST_OF = {
    "bft.leader_handle": _client_request,
    "chain.head_handle": _client_request,
    "peerreview.send": lambda args: f"round.{len(args[0].log) // len(args[0].children) // 2}",
}

STEP_SPANS = {"bft": "bft.step", "chain": "chain.step", "peerreview": "peerreview.step"}
HANDLER_SPANS = {
    "bft": ("bft.leader_handle", "bft.step"),
    "chain": ("chain.head_handle", "chain.middle_tail_handle", "chain.step"),
    "peerreview": ("peerreview.send", "peerreview.step"),
}


def _bindings(fn):
    """Every (module, name) in the attestnet package bound to fn."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").partition(".")[0] != "attestnet":
            continue
        for name, value in list(vars(module).items()):
            if value is fn:
                yield module, name


@contextmanager
def traced_layers(tracer: Tracer):
    restore = []
    try:
        for span_name, owner, attr, probe in ENTRY_POINTS:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                restore.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(span_name, original, probe))
                continue
            original = getattr(owner, attr)
            wrapped = tracer.wrap(span_name, original, probe)
            for module, name in _bindings(original):
                restore.append((module, name, original))
                setattr(module, name, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
