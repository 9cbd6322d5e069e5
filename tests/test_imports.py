"""The package loads a submodule only when one of its names is used.

`analyze` reads and measures a trajectory; it must not load the simulator
(`scenario`, `dynamics`) or the plotter (`svgplot`). The exports of
`risktraj` resolve on first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import risktraj

SRC = Path(__file__).resolve().parents[1] / "src"

ANALYZE_IN_A_FRESH_INTERPRETER = """
import json, sys
import risktraj.cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("risktraj"))

before = loaded()
code = risktraj.cli.main(["analyze", sys.argv[1]])
print(json.dumps({"code": code, "before": before, "after": loaded()}), file=sys.stderr)
"""


def test_analyze_leaves_the_simulator_unloaded(tmp_path):
    csv = tmp_path / "r.csv"
    csv.write_text("t,r\n0,0.5\n1,0.25\n2,0.125\n3,0\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", ANALYZE_IN_A_FRESH_INTERPRETER, str(csv)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stderr)
    assert result["code"] == 0
    assert "schema = risktraj.report.v1" in proc.stdout
    for loaded in (result["before"], result["after"]):
        assert "risktraj.io_formats" in loaded
        assert "risktraj.scenario" not in loaded
        assert "risktraj.dynamics" not in loaded
        assert "risktraj.svgplot" not in loaded


def test_every_export_resolves():
    for name in risktraj.__all__:
        assert getattr(risktraj, name) is not None, name
    assert risktraj.compare_cases is risktraj.scenario.compare_cases
    assert risktraj.TableParseError is risktraj.errors.TableParseError


def test_star_import_and_dir_list_the_exports():
    namespace = {}
    exec("from risktraj import *", namespace)
    assert set(risktraj.__all__) <= set(namespace)
    assert set(risktraj.__all__) <= set(dir(risktraj))
    assert "__version__" in dir(risktraj)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        risktraj.no_such_name  # noqa: B018
    assert not hasattr(risktraj, "SolarEnergyTable")  # defined, but not exported
