"""The suite's warning filters, run on a throwaway test file.

`pyproject.toml` turns every DeprecationWarning into an error but one:
on a failure, hypothesis loads `libcst` to suggest a patch, and `libcst`
warns that `mypy_extensions.TypedDict` is deprecated. Raised inside the
plugin, that warning would hide the falsifying example behind a pytest
INTERNALERROR.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
import warnings

from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_falsified(n):
    assert n < 5


def test_other_deprecation():
    warnings.warn("some old API", DeprecationWarning)
"""


def test_failing_property_shows_its_example(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out  # tests failed; 3 would be an internal error
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_falsified(" in out
    assert "FAILED test_probe.py::test_other_deprecation - DeprecationWarning" in out
