"""The repository's pytest settings report a failing property test and run
on: with every warning an error, a warning raised while hypothesis reports
a failure would otherwise end the run in ``INTERNALERROR``."""

import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent

CASES = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_leaves_the_next_test_running(tmp_path):
    ini = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["pytest"]["ini_options"]
    lines = "".join(f"\n    {f}" for f in ini["filterwarnings"])
    (tmp_path / "pytest.ini").write_text(f"[pytest]\nfilterwarnings ={lines}\n")
    (tmp_path / "test_cases.py").write_text(CASES)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_cases.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
