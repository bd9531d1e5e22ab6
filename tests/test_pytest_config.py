"""The test configuration must report a failing property test as a plain failure.

Under ``filterwarnings = ["error"]`` a warning raised by the hypothesis
plugin's report hook ends the whole run in INTERNALERROR, so the results
of every test after a failing ``@given`` test are lost.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_hide_the_others(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    argv = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
            "-q", "test_probe.py"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
