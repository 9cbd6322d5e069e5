"""The benchmark's per-layer hooks must name functions that exist.

perfbench/spans.py wraps program functions by (module, attribute); a
renamed or moved function, or a counter that no longer fits what its
function returns, is reported there as absent and its metrics read 0.
These tests fail instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from risktraj.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr",
                         [hook[:2] for hook in load_spans().HOOKS])
def test_hooked_function_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_traced_compare_has_every_counter(tmp_path):
    recorder = load_spans().SpanRecorder()
    recorder.install()
    try:
        code = main(["compare", "--out", str(tmp_path), "--set", "integrator.dt_s=0.5"])
    finally:
        recorder.remove()
    assert code == 0
    assert recorder.absent == []
    totals = recorder.totals()["dynamics.integrate"]
    assert totals["calls"] == 3
    assert totals["steps"] == 3 * 288
    for counter in ("shed_switches", "clamp_samples"):
        assert counter in totals


def test_traced_analyze_counts_the_rows_read(tmp_path):
    csv = tmp_path / "r.csv"
    csv.write_text("t,r\n" + "".join(f"{k},{0.5 ** k!r}\n" for k in range(40)))
    recorder = load_spans().SpanRecorder()
    recorder.install()
    try:
        code = main(["analyze", str(csv), "--out", str(tmp_path / "report.txt")])
    finally:
        recorder.remove()
    assert code == 0
    assert recorder.absent == []
    totals = recorder.totals()
    assert totals["io_formats.read_trajectory"]["rows"] == 40
    assert totals["metrics.assemble_report"]["samples"] == 40
