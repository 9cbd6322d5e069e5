"""The benchmark's per-layer hooks must name functions that exist.

perfbench/spans.py wraps program functions by (module, attribute); a
renamed or moved function is reported there as absent and its metrics
read 0. This test fails instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("module_name, attr",
                         [hook[:2] for hook in load_hooks()])
def test_hooked_function_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
