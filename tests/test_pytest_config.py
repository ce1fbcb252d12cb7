"""The repository's pytest configuration, run on a throwaway test module."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_property_is_one_failure(tmp_path):
    """A failing property is reported as a failure and the session goes on.

    On failure hypothesis imports libcst, whose import warns through
    `mypy_extensions`; under `error::DeprecationWarning` alone that warning
    aborted the session with INTERNALERROR before the next test ran.
    """
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_pair.py").write_text(FAILING_PROPERTY_THEN_PASSING_TEST)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
