"""One fast run of every CLI subcommand through cli.main."""

import json

import pytest

from attestnet import bench as bench_mod
from attestnet import cli
from attestnet.bench import CSV_HEADER, DELAY_PRESETS_NS, PROTOCOLS
from attestnet.checker import Counterexample, replay_counterexample
from attestnet.protocols.bft import BftCluster
from attestnet.protocols.common import transport_session
from attestnet.protocols.peerreview import PrScenario
from attestnet.simnet import ACTION_KINDS, DEFAULT_RETRY_BUDGET, FaultAction, FaultSchedule
from attestnet.transform import StateSimulator


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
    expected_after = StateSimulator.expected_after

    def counting(self, app_msg):
        calls.append(app_msg)
        return expected_after(self, app_msg)

    monkeypatch.setattr(StateSimulator, "expected_after", counting)
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
    monkeypatch.setattr(bench_mod.BftCluster, "build", crashed)


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
    monkeypatch.setattr(bench_mod.PrScenario, "build", lossy)


@pytest.mark.parametrize("protocol, sabotage, message", [
    ("bft", _crash_the_leader, "honest round must commit"),
    ("peerreview", _lose_a_frame, "1 frame(s) ran out of retries"),
])
def test_bench_failed_check_prints_one_line_and_exits_1(protocol, sabotage, message,
                                                       monkeypatch, capsys):
    sabotage(monkeypatch)
    assert cli.main(["bench", "--protocol", protocol, "--requests", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"attestnet bench: check failed: {message}"]


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
     "bad fault action"),
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


@pytest.mark.parametrize("seq", [2, -1])
def test_scenario_rewrite_log_seq_outside_the_log_exits_2(tmp_path, capsys, seq):
    # One round leaves two entries in each child's log.
    path = tmp_path / "rewrite.json"
    path.write_text(json.dumps({
        "protocol": "peerreview", "children": 3, "rounds": 1,
        "attack": {"kind": "rewrite_log", "node": 2, "seq": seq}}))
    assert cli.main(["scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"attestnet scenario: rewrite_log seq {seq} is not "
                            f"in child 2's log of 2 entries\n")


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
    # per-receiver-counter breaks only consistency, whose receivers are each
    # fed their stream in order: its pattern is each receiver's acceptance.
    consistency = kernel == "per-receiver-counter"
    assert data["lemma"] == ("consistency" if consistency else "no_lost")
    recorded = data["receivers"] if consistency else data["acceptance"]
    replayed = replay_counterexample(Counterexample.from_dict(data))
    assert replayed and replayed == [tuple(a) for a in recorded]


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
