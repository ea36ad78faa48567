"""The test configuration in ``pyproject.toml``, checked by running pytest in a child process."""

import subprocess
import sys
from pathlib import Path

from helpers import subprocess_env, write_file

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY_THEN_PLAIN = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert n < 0


def test_plain_passes():
    assert True
'''


def test_failing_property_test_reports_and_the_run_goes_on(tmp_path):
    # on a failure hypothesis imports its patch helper, whose import warns once
    test_file = write_file(tmp_path, FAILING_PROPERTY_THEN_PLAIN, "test_child.py")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", str(test_file)],
        cwd=tmp_path,
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = child.stdout + child.stderr
    assert child.returncode == 1, output
    assert "1 failed, 1 passed" in output
    assert "INTERNALERROR" not in output
