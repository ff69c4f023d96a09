"""One fast run of every CLI subcommand through cli.main, and the module run
as a script."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from attestnet import cli
from attestnet import scenario as scenario_mod
from attestnet.bench import CSV_HEADER, DELAY_PRESETS_NS
from attestnet.checker import Counterexample, replay_counterexample
from attestnet.device import Endpoint, unpack_pair
from attestnet.protocols.bft import BftCluster, BftReplica, WrongValueLeader
from attestnet.protocols.common import transport_session
from attestnet.protocols.peerreview import PrScenario
from attestnet.scenario import PROTOCOLS
from attestnet.simnet import ACTION_KINDS, DEFAULT_RETRY_BUDGET, FaultAction, FaultSchedule
from attestnet.transform import Wrapper
from attestnet.wire import decode_frame


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_bench_each_protocol(protocol, capsys):
    assert cli.main(["bench", "--protocol", protocol, "--requests", "4"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split(",") == CSV_HEADER
    fields = dict(zip(CSV_HEADER, row.split(",")))
    assert fields["protocol"] == protocol and fields["requests"] == "4"
    assert float(fields["throughput_ops"]) > 0


def test_bft_bench_re_executes_peers_through_the_wrapper(monkeypatch, capsys):
    calls = []
    re_execute = Wrapper._re_execute

    def counting(self, sender, app_msg, state):
        calls.append(app_msg)
        return re_execute(self, sender, app_msg, state)

    monkeypatch.setattr(Wrapper, "_re_execute", counting)
    assert cli.main(["bench", "--protocol", "bft", "--requests", "4"]) == 0
    # Per request: two followers check the leader's proof and each other's
    # forward, and the leader checks two acks.
    assert len(calls) == 6 * 4


def test_bench_csv_writes_header_once_then_appends_rows(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    argv = ["bench", "--protocol", "a2m", "--requests", "4", "--csv", str(path)]
    assert cli.main(argv) == 0
    printed_row = capsys.readouterr().out.splitlines()[1]
    assert path.read_text().splitlines() == [",".join(CSV_HEADER), printed_row]
    assert cli.main(argv) == 0
    assert path.read_text().splitlines() == [",".join(CSV_HEADER), printed_row,
                                             printed_row]


def test_bench_csv_that_cannot_be_written_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "bench.csv"
    argv = ["bench", "--protocol", "a2m", "--requests", "4", "--csv", str(path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("attestnet bench: ") and "No such file or directory" in line
    assert not path.parent.exists()


@pytest.mark.parametrize("preset", sorted(DELAY_PRESETS_NS))
def test_bench_delay_preset_sets_the_attest_delay(capsys, preset):
    # An A2M append attests once per record, so its latency is the preset.
    assert cli.main(["bench", "--protocol", "a2m", "--requests", "4",
                     "--delay", preset]) == 0
    header, row = capsys.readouterr().out.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    latency_us = f"{DELAY_PRESETS_NS[preset] / 1000:.3f}"
    assert fields["delay_model"] == preset and fields["transport"] == "sim"
    assert fields["latency_mean_us"] == fields["latency_p99_us"] == latency_us


def _crash_the_leader(monkeypatch):
    build = BftCluster.build

    def crashed(*args, **kwargs):
        cluster = build(*args, **kwargs)
        cluster.replicas[cluster.leader_id].crashed = True
        return cluster
    monkeypatch.setattr(scenario_mod.BftCluster, "build", crashed)


def _lose_a_frame(monkeypatch):
    # The root's first frame to child 2 is dropped on every attempt: the audit
    # still finds every log consistent, but the frame is exhausted.
    build = PrScenario.build
    drops = [FaultAction(kind="drop", session=transport_session(1, 2), sender=1)
             for _ in range(DEFAULT_RETRY_BUDGET + 1)]

    def lossy(*args, **kwargs):
        scenario = build(*args, **kwargs)
        scenario.cluster.net.install_schedule(FaultSchedule(actions=drops))
        return scenario
    monkeypatch.setattr(scenario_mod.PrScenario, "build", lossy)


@pytest.mark.parametrize("protocol, sabotage, message", [
    pytest.param("bft", _crash_the_leader,
                 "no value accepted in 1 round(s), the first is round 1",
                 id="bft-crashed-leader"),
    pytest.param("peerreview", _lose_a_frame,
                 'the run is not ok: {"exhausted": 1, "ok": false, '
                 '"protocol": "peerreview"}',
                 id="peerreview-lost-frame"),
])
def test_bench_failed_check_prints_one_line_and_exits_1(protocol, sabotage, message,
                                                       monkeypatch, capsys):
    sabotage(monkeypatch)
    assert cli.main(["bench", "--protocol", protocol, "--requests", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"attestnet bench: check failed: {message}"]


def test_bench_of_a_run_that_accepts_a_wrong_value_exits_1(monkeypatch, capsys):
    # A leader that lies about round 1's state, and followers that apply and
    # answer whatever state it attests, with no verify, re-execution or state
    # check: client 0 accepts counter_state(8) for request 1, so no row.
    build = BftCluster.build

    def lying(*args, **kwargs):
        return build(*args, **{**kwargs, "leader_cls": WrongValueLeader,
                               "leader_kwargs": {"lie_round": 1}})

    def trusting(self, sender, inner_frame):
        req, state = unpack_pair(decode_frame(inner_frame).payload)
        self.value = int.from_bytes(state, "big")
        self._reply_client(req, self.value)
    monkeypatch.setattr(scenario_mod.BftCluster, "build", lying)
    monkeypatch.setattr(BftReplica, "_on_proof", trusting)
    assert cli.main(["bench", "--protocol", "bft", "--requests", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("attestnet bench: check failed: the run is not ok: ")
    assert '"agreement": false' in line


@pytest.mark.parametrize("argv, message", [
    (["--requests", "0"], "requests must be a positive multiple of batch 1, got 0"),
    (["--requests", "5", "--batch", "4"],
     "requests must be a positive multiple of batch 4, got 5"),
])
def test_bench_requests_not_a_positive_multiple_of_batch_exits_2(argv, message,
                                                                 capsys):
    assert cli.main(["bench", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"attestnet bench: {message}\n"


def test_scenario_honest_bft(tmp_path, capsys):
    path = tmp_path / "honest.json"
    path.write_text(json.dumps({"protocol": "bft", "seed": 0, "rounds": 3}))
    assert cli.main(["scenario", str(path)]) == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["ok"] and last["flags"] == [] and last["exhausted"] == 0


def test_scenario_retry_exhaustion_is_not_ok(tmp_path, capsys):
    # One more drop of any frame on the leader's stream to replica 2 than the
    # retry budget allows: its first frame is dropped on every attempt. One
    # round, since every later frame on the stream would fail the counter.
    drops = [{"kind": "drop", "session": transport_session(1, 2), "sender": 1}
             for _ in range(DEFAULT_RETRY_BUDGET + 1)]
    path = tmp_path / "exhausted.json"
    path.write_text(json.dumps({"protocol": "bft", "seed": 0, "rounds": 1,
                                "faults": {"actions": drops}}))
    assert cli.main(["scenario", str(path)]) == 1
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["exhausted"] == 1 and not last["ok"]


@pytest.mark.parametrize("protocol", ["a2m", "raw-channel"])
def test_scenario_without_attack_kinds_runs_ok(protocol, tmp_path, capsys):
    path = tmp_path / "honest.json"
    path.write_text(json.dumps({"protocol": protocol}))
    assert cli.main(["scenario", str(path)]) == 0
    (last,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert last["protocol"] == protocol and last["ok"]


def test_scenario_raw_channel_retry_exhaustion_is_not_ok(tmp_path, capsys):
    # The sender's first frame is dropped on every attempt, so neither it nor
    # any later frame of its stream is delivered.
    drops = [{"kind": "drop", "session": transport_session(1, 2), "sender": 1}
             for _ in range(DEFAULT_RETRY_BUDGET + 1)]
    path = tmp_path / "exhausted.json"
    path.write_text(json.dumps({"protocol": "raw-channel", "rounds": 2,
                                "faults": {"actions": drops}}))
    assert cli.main(["scenario", str(path)]) == 1
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["exhausted"] >= 1 and last["delivered"] == 0 and not last["ok"]


@pytest.mark.parametrize("order", ["twice", "late"])
def test_scenario_raw_channel_wrong_delivery_is_not_ok(order, tmp_path, capsys,
                                                       monkeypatch):
    # The receiver hands over each body twice, or round 1's body after round
    # 2's; every frame arrives, so only the delivered sequence is wrong.
    poll, held = Endpoint.poll, []

    def wrong(self, session):
        got = poll(self, session)
        if order == "twice":
            return got + got
        if not held:
            held.extend(got)
            return []
        return got + held
    monkeypatch.setattr(Endpoint, "poll", wrong)
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps({"protocol": "raw-channel", "rounds": 2}))
    assert cli.main(["scenario", str(path)]) == 1
    (last,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert last["delivered"] == {"twice": 4, "late": 2}[order]
    assert last["exhausted"] == 0 and not last["ok"]


def _peerreview_scenario(tmp_path, capsys, rounds, actions):
    path = tmp_path / "peerreview.json"
    path.write_text(json.dumps({"protocol": "peerreview", "seed": 0,
                                "rounds": rounds, "faults": {"actions": actions}}))
    code = cli.main(["scenario", str(path)])
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_scenario_peerreview_installs_its_faults(tmp_path, capsys):
    # The root's first frame to child 2 is dropped on every attempt.
    drops = [{"kind": "drop", "session": transport_session(1, 2), "sender": 1}
             for _ in range(DEFAULT_RETRY_BUDGET + 1)]
    code, last = _peerreview_scenario(tmp_path, capsys, 1, drops)
    assert code == 1
    assert last["exhausted"] == 1 and not last["ok"]


def test_scenario_peerreview_survives_every_action_kind(tmp_path, capsys):
    actions = [{"kind": kind, "session": transport_session(1, 2), "sender": 1,
                "index": i, "delay_ns": 700}
               for i, kind in enumerate(ACTION_KINDS)]
    code, last = _peerreview_scenario(tmp_path, capsys, 8, actions)
    assert code == 0
    assert last["ok"] and last["exhausted"] == 0


@pytest.mark.parametrize("content, message", [
    ('{"protocol": "foo"}', "unknown protocol 'foo'"),
    ('{"protocol": ', "Expecting value"),
    ('["bft"]', "a scenario is a JSON object"),
    (None, "No such file or directory"),
    ('{"protocol": "bft", "faults": {"actions": [{"kind": "drop", "bogus": 1}]}}',
     "unknown fault action field \"bogus\""),
    ('{"protocol": "cr", "faults": {"actions": [{"index": 0}]}}',
     "a fault action needs a \"kind\", got {'index': 0}"),
    ('{"protocol": "bft", "attack": {"kind": "crash", "node": 9}}',
     "crash node 9 is not a replica"),
    ('{"protocol": "cr", "n": 3, "attack": {"kind": "lie", "position": 3}}',
     "lie position 3 is not in the chain"),
    ('{"protocol": "peerreview", "attack": {"kind": "mutate_result", "node": 7}}',
     "attack node 7 is not a child"),
    ('{"protocol": "cr", "attack": {"kind": "equivocate"}}',
     "unknown cr attack kind 'equivocate'"),
    ('{"protocol": "bft", "attack": {"kind": "replay", "index": 0}}',
     "unknown bft attack kind 'replay'"),
    ('{"protocol": "peerreview", "attack": {"kind": "lie"}}',
     "unknown peerreview attack kind 'lie'"),
    ('{"protocol": ["bft"]}', "unknown protocol ['bft']"),
    ('{"protocol": "cr", "attack": "lie"}', "\"attack\" must be an object"),
    ('{"protocol": "bft", "attack": {"kind": "crash", "after_round": "2"}}',
     "attack \"after_round\" must be an integer, got '2'"),
    ('{"protocol": "cr", "rounds": "x"}', "\"rounds\" must be an integer, got 'x'"),
    ('{"protocol": "bft", "seed": "a"}', "\"seed\" must be an integer, got 'a'"),
    ('{"protocol": "bft", "n": 3.0}', "\"n\" must be an integer, got 3.0"),
    ('{"protocol": "bft", "f": null}', "\"f\" must be an integer, got None"),
    ('{"protocol": "peerreview", "children": true}',
     "\"children\" must be an integer, got True"),
    ('{"protocol": "peerreview", "faults": [1]}', "\"faults\" must be an object"),
    ('{"protocol": "peerreview", "faults": {"actions": [1]}}',
     "a fault action must be an object, got 1"),
    ('{"protocol": "bft", "faults": {"actions": {"kind": "drop"}}}',
     "faults \"actions\" must be a list"),
    ('{"protocol": "cr", "faults": {"actions": [{"kind": "delay", "delay_ns": "9"}]}}',
     "fault action \"delay_ns\" must be an integer, got '9'"),
    ('{"protocol": "raw-channel", "rounds": 1, "faults": {"actions": '
     '[{"kind": "forge", "index": 0, "frame": 5}]}}',
     "unknown fault action field \"frame\""),
    ('{"protocol": "bft", "faults": {"actions": [{"kind": "forge", "frame": null}]}}',
     "unknown fault action field \"frame\""),
    ('{"protocol": "a2m", "attack": {"kind": "equivocate"}}',
     "unknown a2m attack kind 'equivocate'"),
    ('{"protocol": "raw-channel", "attack": {"kind": "drop", "index": 0}}',
     "unknown raw-channel attack kind 'drop'"),
    ('{"protocol": "bft", "batch": 0}', "\"batch\" must be >= 1, got 0"),
    ('{"protocol": "bft", "batch": 16, "rounds": 2}', "\"batch\" needs \"payload\""),
    ('{"protocol": "cr", "payload": -1}', "\"payload\" must be >= 0, got -1"),
    ('{"protocol": "peerreview", "children": -2}', "\"children\" must be >= 1, got -2"),
    ('{"protocol": "peerreview", "rounds": -1}', "\"rounds\" must be >= 1, got -1"),
    ('{"protocol": "a2m", "attest_delay_ns": "23"}',
     "\"attest_delay_ns\" must be an integer, got '23'"),
    ('{"protocol": "cr", "rounds": 1, "payload": 70000}',
     "\"payload\" or \"n\" too large: 70412 > 65536 bytes"),
    ('{"protocol": "peerreview", "rounds": 1, "payload": 40000}',
     '"payload", "children", "rounds" or "replay" actions too large: 160567 > 65536 bytes'),
    ('{"protocol": "a2m", "rounds": 1, "payload": 70000}',
     "\"payload\" too large: 70008 > 65536 bytes"),
    ('{"protocol": "raw-channel", "rounds": 1, "payload": 70000}',
     "\"payload\" too large: 70008 > 65536 bytes"),
    ('{"protocol": "cr", "n": 3, "f": -1}', "f must be >= 0, got -1"),
    ('{"protocol": "cr", "n": 0, "f": -1}', "f must be >= 0, got -1"),
    ('{"protocol": "peerreview", "children": 257}',
     '"payload", "children", "rounds" or "replay" actions too large: 70680 > 65536 bytes'),
    ('{"protocol": "cr", "n": 258}',
     "a transport session holds device ids 0..255, got 1 and 256"),
    ('{"protocol": "bft", "n": 259, "f": 129}',
     "a transport session holds device ids 0..255, got 1 and 256"),
    ('{"protocol": "raw-channel", "faults": {"actions": '
     '[{"kind": "replay", "earlier_index": -100}]}}',
     "fault action \"earlier_index\" must be >= 0, got -100"),
    ('{"protocol": "raw-channel", "faults": {"actions": '
     '[{"kind": "delay", "index": 0, "delay_ns": -1000000000}]}}',
     "fault action \"delay_ns\" must be >= 0, got -1000000000"),
    ('{"protocol": "bft", "faults": {"actions": [{"kind": "drop", "index": -1}]}}',
     "fault action \"index\" must be >= 0, got -1"),
    ('{"protocol": "cr", "faults": {"actions": [{"kind": "drop", "session": -3}]}}',
     "fault action \"session\" must be >= 0, got -3"),
    ('{"protocol": "peerreview", "faults": {"actions": [{"kind": "drop", "sender": -2}]}}',
     "fault action \"sender\" must be >= 0, got -2"),
    ('{"protocol": "raw-channel", "faults": {"actions": '
     '[{"kind": "tamper", "bit_offset": -8}]}}',
     "fault action \"bit_offset\" must be >= 0, got -8"),
    ('{"protocol": "bft", "attack": {"kind": "wrong_value", "round": 0}}',
     "attack \"round\" must be >= 1, got 0"),
    ('{"protocol": "peerreview", "attack": {"kind": "mutate_result", "round": -1}}',
     "attack \"round\" must be >= 1, got -1"),
    ('{"protocol": "cr", "attack": {"kind": "lie", "commit": 0}}',
     "attack \"commit\" must be >= 1, got 0"),
    ('{"protocol": "bft", "attack": {"kind": "crash", "after_round": -1}}',
     "attack \"after_round\" must be >= 0, got -1"),
    ('{"protocol": "cr", "attack": {"kind": "lie", "comit": 3}}',
     "unknown 'lie' attack field \"comit\""),
    ('{"protocol": "bft", "round": 9}', "unknown bft field \"round\""),
    ('{"protocol": "bft", "attack": {"round": 2}}', "unknown 'none' attack field \"round\""),
    ('{"protocol": "bft", "attack": {"kind": "equivocate", "node": 3}}',
     "unknown 'equivocate' attack field \"node\""),
    ('{"protocol": "peerreview", "n": 9}', "unknown peerreview field \"n\""),
    ('{"protocol": "a2m", "faults": {"actions": [{"kind": "drop", "index": 0}]}}',
     "unknown a2m field \"faults\""),
    ('{"protocol": "raw-channel", "faults": {"sead": 3, "actions": '
     '[{"kind": "drop", "index": 0}]}}', "unknown faults field \"sead\""),
])
def test_scenario_bad_input_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_text(content)
    assert cli.main(["scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("attestnet scenario: ") and message in line


# Child 2's first answer is dropped for good (17 attempts on a retry budget of
# 16), and its second answer's frame brings back a copy of it: the root then
# polls both in one step, beside every other child's answer.
LOST_AND_REPLAYED = {"actions": [
    *[{"kind": "drop", "session": transport_session(1, 2), "sender": 2}] * 17,
    {"kind": "replay", "session": transport_session(1, 2), "sender": 2,
     "earlier_index": 0}]}


@pytest.mark.parametrize("spec, message", [
    ({"protocol": "a2m", "payload": 5_000_000}, '"payload" too large'),
    ({"protocol": "bft", "batch": 200_000, "payload": 16}, '"payload" too large'),
    ({"protocol": "peerreview", "children": 238,
      "faults": {"actions": [{"kind": "bogus"}]}}, "unknown action kind 'bogus'"),
    ({"protocol": "peerreview", "children": 238,
      "attack": {"kind": "mutate_result", "node": 999}}, "attack node 999 is not a child"),
    ({"protocol": "peerreview", "children": 200, "payload": 70000},
     '"payload", "children", "rounds" or "replay" actions too large'),
    ({"protocol": "bft", "n": 101, "f": 50, "attack": {"kind": "crash", "node": 500}},
     "crash node 500 is not a replica"),
    ({"protocol": "bft", "n": 201, "f": 100, "batch": 300, "payload": 300},
     '"payload" too large'),
    ({"protocol": "cr", "n": 200, "f": 1,
      "faults": {"actions": [{"kind": "drop", "index": -1}]}},
     'fault action "index" must be >= 0, got -1'),
    ({"protocol": "cr", "n": 200, "f": -1}, "f must be >= 0, got -1"),
    ({"protocol": "peerreview", "children": 239, "rounds": 1},
     '"payload", "children", "rounds" or "replay" actions too large: 65730 > 65536 bytes'),
    ({"protocol": "peerreview", "children": 238, "rounds": 10},
     '"payload", "children", "rounds" or "replay" actions too large: 65931 > 65536 bytes'),
    ({"protocol": "peerreview", "children": 238, "rounds": 2, "faults": LOST_AND_REPLAYED},
     '"payload", "children", "rounds" or "replay" actions too large: 65730 > 65536 bytes'),
    ({"protocol": "cr", "n": 200, "payload": 64000, "rounds": 1},
     '"payload" or "n" too large: 100857 > 65536 bytes'),
    ({"protocol": "peerreview", "children": 200, "rounds": 1,
      "attack": {"kind": "rewrite_log", "seq": 5}},
     'rewrite_log seq 5 is not below "rounds" 1: a child logs one entry a round'),
])
def test_bad_input_is_refused_before_the_cluster_is_built(spec, message):
    """No body is allocated and no cluster built: several specs name wide
    topologies whose build takes tens of MiB."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(message)):
            scenario_mod.run_scenario(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_scenario_peerreview_children_fill_the_roots_log_entry(tmp_path, capsys):
    """Without "payload", the root's RECV entry of its children's answers to
    a round's command fits 238 children, and 239 are refused as bad input."""
    path = tmp_path / "wide.json"
    path.write_text('{"protocol": "peerreview", "children": 238, "rounds": 1}')
    assert cli.main(["scenario", str(path)]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["ok"] is True
    path.write_text('{"protocol": "peerreview", "children": 239, "rounds": 1}')
    assert cli.main(["scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ('attestnet scenario: "payload", "children", "rounds" or '
                            '"replay" actions too large: 65730 > 65536 bytes\n')


@pytest.mark.parametrize("runs, refused, size", [
    # BFT: the wrapper's attestation is 24 bytes past the body, and a proof to
    # a follower 1 + 84 past that.
    ({"protocol": "bft", "n": 1, "f": 0, "payload": 65504},
     {"protocol": "bft", "n": 1, "f": 0, "payload": 65505}, 65537),
    ({"protocol": "bft", "n": 3, "payload": 65419},
     {"protocol": "bft", "n": 3, "payload": 65420}, 65537),
    # CR: the proof into the tail, 8 + (26 + body) + 185 a level.
    ({"protocol": "cr", "n": 3, "payload": 65124},
     {"protocol": "cr", "n": 3, "payload": 65125}, 65537),
    ({"protocol": "cr", "n": 5, "f": 2, "payload": 64754},
     {"protocol": "cr", "n": 5, "f": 2, "payload": 64755}, 65537),
    # PeerReview: the root's RECV entry, 5 + frames * (265 + 2 * command); the
    # command b"cmd-10" is 6 bytes, and the CLI test above runs 238 children
    # with b"cmd-1".
    ({"protocol": "peerreview", "children": 1, "payload": 32625},
     {"protocol": "peerreview", "children": 1, "payload": 32626}, 65538),
    ({"protocol": "peerreview", "children": 236, "rounds": 10},
     {"protocol": "peerreview", "children": 237, "rounds": 10}, 65654),
    ({"protocol": "peerreview", "children": 237, "rounds": 2, "faults": LOST_AND_REPLAYED},
     {"protocol": "peerreview", "children": 238, "rounds": 2, "faults": LOST_AND_REPLAYED},
     65730),
])
def test_largest_round_runs_and_one_byte_more_is_refused(runs, refused, size):
    """Each protocol's formula at its edge: the largest spec runs, and the
    next is refused with the size of the payload the kernel would refuse, so
    a formula one byte off fails a row."""
    assert scenario_mod.run_scenario({"rounds": 1, **runs}).ok
    topology = {"cr": ' or "n"',
                "peerreview": ', "children", "rounds" or "replay" actions'}.get(
                    refused["protocol"], "")
    with pytest.raises(ValueError, match=re.escape(
            f'"payload"{topology} too large: {size} > 65536 bytes')):
        scenario_mod.run_scenario({"rounds": 1, **refused})


@pytest.mark.parametrize("seq", [2, -1])
def test_scenario_rewrite_log_seq_outside_the_log_exits_2(tmp_path, capsys, seq):
    # Two rounds leave two entries in each child's log, one a round.
    path = tmp_path / "rewrite.json"
    path.write_text(json.dumps({
        "protocol": "peerreview", "children": 3, "rounds": 2,
        "attack": {"kind": "rewrite_log", "node": 2, "seq": seq}}))
    assert cli.main(["scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "attestnet scenario: " + (
        'rewrite_log seq 2 is not below "rounds" 2: a child logs one entry a round\n'
        if seq == 2 else 'attack "seq" must be >= 0, got -1\n')


def test_scenario_rewrite_log_of_a_lost_command_never_fires(tmp_path, capsys):
    """Both commands to child 2 are lost, so its log stays empty and there is
    nothing to rewrite: the run is judged, and its exhausted frames fail it."""
    path = tmp_path / "rewrite.json"
    path.write_text(json.dumps({
        "protocol": "peerreview", "rounds": 2,
        "attack": {"kind": "rewrite_log", "node": 2, "seq": 0},
        "faults": {"actions": [{"kind": "drop", "session": transport_session(1, 2),
                                "sender": 1}] * 17}}))
    assert cli.main(["scenario", str(path)]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert lines[-1] == {"protocol": "peerreview", "exhausted": 2, "ok": False}
    assert {line["node"]: line["verdict"] for line in lines[:-1]} == {
        1: "Consistent", 2: "Consistent", 3: "Consistent"}


def test_check_small_instance(capsys):
    assert cli.main(["check", "--senders", "2", "--messages", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.endswith("verdict=Holds") for line in lines)


@pytest.mark.parametrize("kernel", ["frozen-counter", "gap-accepting",
                                    "per-receiver-counter"])
def test_check_mutant_kernel_writes_replayable_counterexample(kernel, tmp_path, capsys):
    path = tmp_path / "cex.json"
    assert cli.main(["check", "--kernel", kernel,
                     "--counterexample-out", str(path)]) == 1
    assert "verdict=Counterexample" in capsys.readouterr().out
    data = json.loads(path.read_text())
    assert data["kernel"] == kernel
    # per-receiver-counter breaks only consistency, whose streams are the
    # receivers' own, each listed in order.
    consistency = kernel == "per-receiver-counter"
    assert data["lemma"] == ("consistency" if consistency else "no_lost")
    assert "receivers" not in data
    replayed = replay_counterexample(Counterexample.from_dict(data))
    assert replayed and replayed == [tuple(a) for a in data["acceptance"]]


def test_check_counterexample_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "cex.json"
    assert cli.main(["check", "--kernel", "frozen-counter",
                     "--counterexample-out", str(path)]) == 2
    captured = capsys.readouterr()
    assert "verdict=Counterexample" in captured.out
    (line,) = captured.err.splitlines()
    assert line.startswith("attestnet check: ") and "No such file or directory" in line
    assert not path.parent.exists()


@pytest.mark.parametrize("bounds, message", [
    (["--senders", "3"], "senders must be 1..2"),
    (["--messages", "0"], "messages must be 1..4"),
])
def test_check_bounds_outside_the_limits_exit_2(bounds, message, capsys):
    assert cli.main(["check", *bounds]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"attestnet check: {message}\n"


def test_attest_demo_is_deterministic(capsys):
    assert cli.main(["attest-demo", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["attest-demo", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("msg 0:") and "measurement=" in first


def test_attest_demo_transcript_is_pinned(capsys):
    # Every transcript byte, the measurement and the sessions, as printed.
    assert cli.main(["attest-demo", "--seed", "3"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "41315a8dcde3109798c81999f88460c3c9d596fa50304238880146273ff219e6")


def test_bench_payload_too_large_for_the_kernel_exits_2(capsys):
    assert cli.main(["bench", "--protocol", "cr", "--payload", "70000",
                     "--requests", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("attestnet bench: \"payload\" or \"n\" too large: "
                            "70412 > 65536 bytes\n")


def test_bench_batch_below_one_exits_2(capsys):
    assert cli.main(["bench", "--batch", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "attestnet bench: batch must be >= 1\n"


def test_python_dash_m_runs_the_cli_and_exits_with_its_code(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "attestnet.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
    missing = run("scenario", str(tmp_path / "missing.json"))
    assert missing.returncode == 2 and missing.stdout == ""
    assert missing.stderr.startswith("attestnet scenario: ")
    bench = run("bench", "--protocol", "a2m", "--requests", "4")
    assert bench.returncode == 0, bench.stderr
    assert bench.stdout.splitlines()[0] == ",".join(CSV_HEADER)
