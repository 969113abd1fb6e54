"""A failing hypothesis test is reported as a failure, and the session goes on.

Under filterwarnings = error, hypothesis's failure report used to import a
module whose import warns, which ended the session with INTERNALERROR;
tests/conftest.py imports it beforehand with that warning ignored.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_runs_after():
    pass
"""


def test_failing_given_test_is_reported(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "tests")]))
    # the repo's pytest settings (filterwarnings = error) and its conftest
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "conftest",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout
