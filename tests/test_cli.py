"""One fast run of every CLI subcommand through cli.main."""

import json

import pytest

from attestnet import cli
from attestnet.bench import CSV_HEADER, PROTOCOLS


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_bench_each_protocol(protocol, capsys):
    assert cli.main(["bench", "--protocol", protocol, "--requests", "4"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split(",") == CSV_HEADER
    fields = dict(zip(CSV_HEADER, row.split(",")))
    assert fields["protocol"] == protocol and fields["requests"] == "4"
    assert float(fields["throughput_ops"]) > 0


def test_bench_wallclock_unsupported_exits_nonzero(capsys):
    assert cli.main(["bench", "--protocol", "bft", "--wallclock"]) != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "raw-channel" in captured.err and "socket" in captured.err


def test_scenario_honest_bft(tmp_path, capsys):
    path = tmp_path / "honest.json"
    path.write_text(json.dumps({"protocol": "bft", "seed": 0, "rounds": 3}))
    assert cli.main(["scenario", str(path)]) == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["ok"] and last["flags"] == []


def test_check_small_instance(capsys):
    assert cli.main(["check", "--senders", "2", "--messages", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.endswith("verdict=Holds") for line in lines)


def test_attest_demo_is_deterministic(capsys):
    assert cli.main(["attest-demo", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["attest-demo", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("msg 0:") and "measurement=" in first
