"""The repo's pytest configuration reports a failing test as a failure: its
warning filters do not turn the tooling's own imports into an error that
stops the whole run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_GIVEN_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(n=st.integers(0, 3))
def test_always_fails(n):
    assert n < 0
'''


def test_failing_hypothesis_test_is_a_failure_not_an_internal_error(tmp_path):
    """Reporting a failing @given example makes hypothesis's pytest plugin
    import its patch writer (and libcst, where installed). Under the ini's
    error-on-DeprecationWarning rule that import must not abort the session
    (exit 3, INTERNALERROR); pytest exits 1 and names the test."""
    (tmp_path / "test_fails.py").write_text(FAILING_GIVEN_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout[-2000:]
    assert proc.returncode == 1, proc.stdout[-2000:]
    assert "FAILED test_fails.py::test_always_fails" in proc.stdout
