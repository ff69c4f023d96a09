"""The suite's warning filters still let a failing property test report
normally: every warning is an error, so a warning raised inside hypothesis's
report hook would end the run in INTERNALERROR instead of a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
'''


def test_failing_given_test_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output, output
