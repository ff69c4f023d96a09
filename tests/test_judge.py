"""`scenario.judge`: one test per clause of a safe run, over hand-built outcomes."""

from attestnet.scenario import Outcome, judge


def test_an_honest_run_is_ok():
    assert judge(Outcome([(b"1", b"1"), (b"2", None)]))


def test_a_wrong_accept_is_not_ok():
    assert not judge(Outcome([(b"1", b"1"), (b"2", b"7")]))
    # The raw channel's and A2M's whole sequence is one value.
    assert not judge(Outcome([([b"a", b"b"], [b"b", b"a"])]))


def test_an_undetected_deviation_is_not_ok():
    assert not judge(Outcome([], deviated={2}))
    assert judge(Outcome([], accused={2}, deviated={2}))


def test_a_masked_deviation_is_ok_without_an_accusation():
    assert judge(Outcome([(b"1", b"1")], deviated={3}, masked={3}))


def test_an_accused_honest_node_is_not_ok():
    assert not judge(Outcome([], accused={1}))
    assert not judge(Outcome([], accused={1, 2}, deviated={2}))


def test_divergence_is_ok_only_after_a_deviation():
    assert not judge(Outcome([], diverged=True))
    assert judge(Outcome([], accused={2}, deviated={2}, diverged=True))


def test_an_exhausted_frame_is_not_ok():
    assert not judge(Outcome([(b"1", b"1")], exhausted=1))
