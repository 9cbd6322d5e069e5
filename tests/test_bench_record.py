"""The summariser of tools/bench_record.py, on canned perfbench output,
and its refusal to measure uncommitted code.

Each run of perfbench/run.py ends in one JSON line; the summariser pairs
the parent's and the change's runs and reports medians, quartiles and
the pairs each side won. No benchmark runs here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
BETTER = {"wall_s": "lower", "throughput_per_s": "higher"}


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def output(wall_s, failed=0):
    """What perfbench/run.py prints: progress lines, then the result."""
    result = {"correct": failed == 0, "attempted": 4, "failed": failed,
              "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                          "throughput_per_s": {"value": 1.0 / wall_s, "unit": "1/s"}}}
    return f"samples: 4 operations in 4 unit(s)\nraw: wall_s {wall_s}\n{json.dumps(result)}\n"


def runs(tool, parent_walls, change_walls, workload="w", failed=0):
    return [{"workload": workload, "pair": pair, "side": side,
             "result": tool.parse_result(output(wall, failed if side == "change" else 0))}
            for pair, walls in enumerate(zip(parent_walls, change_walls))
            for side, wall in zip(("parent", "change"), walls)]


def test_medians_quartiles_and_wins():
    tool = load_tool()
    parent = [1.0, 1.2, 1.1, 1.3, 1.0]
    change = [0.9, 1.0, 1.1, 1.4, 0.8]  # wins 3, ties 1, loses 1
    summary = tool.summarise(runs(tool, parent, change), BETTER)["w"]
    assert summary["pairs"] == 5
    assert summary["failed"] == {"parent": 0, "change": 0}
    wall = summary["wall_s"]
    assert wall["parent"]["median"] == 1.1
    assert wall["change"]["median"] == 1.0
    assert wall["parent"]["q1"] == pytest.approx(1.0)
    assert wall["parent"]["q3"] == pytest.approx(1.25)
    assert wall["parent"]["iqr"] == pytest.approx(0.25)
    assert (wall["change_wins"], wall["parent_wins"]) == (3, 1)
    assert wall["change_vs_parent"] == pytest.approx(1.0 / 1.1 - 1.0)
    # higher is better for throughput, so the same pairs give the same wins
    rate = summary["throughput_per_s"]
    assert (rate["change_wins"], rate["parent_wins"]) == (3, 1)


def test_workloads_apart_and_unpaired_runs_left_out():
    tool = load_tool()
    both = runs(tool, [1.0, 1.0], [0.5, 0.5], "a", failed=1) + runs(tool, [2.0], [3.0], "b")
    both.append({"workload": "b", "pair": 7, "side": "parent",
                 "result": tool.parse_result(output(9.0))})
    summary = tool.summarise(both, BETTER)
    assert list(summary) == ["a", "b"]
    assert summary["a"]["failed"] == {"parent": 0, "change": 2}
    assert summary["a"]["wall_s"]["change_wins"] == 2
    assert summary["b"]["pairs"] == 1
    assert summary["b"]["wall_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0,
                                                "iqr": 0.0}
    assert summary["b"]["wall_s"]["parent_wins"] == 1


def test_uncommitted_source_stops_before_any_run(monkeypatch, capsys, tmp_path):
    tool = load_tool()
    asked = []

    def git(*args):
        asked.append(args)
        return " M src/risktraj/metrics.py" if args[0] == "status" else "0" * 40

    def never(*args, **kwargs):
        raise AssertionError("nothing may be extracted or run")

    monkeypatch.setattr(tool, "_git", git)
    monkeypatch.setattr(tool, "_extract", never)
    monkeypatch.setattr(tool, "_run", never)
    out = tmp_path / "bench.json"
    assert tool.main(["--parent", "HEAD~1", "--out", str(out)]) == 2
    assert asked == [("status", "--porcelain", "--untracked-files=no", "--",
                      "src", "perfbench", "tools")]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
