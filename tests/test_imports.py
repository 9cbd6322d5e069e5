"""The package loads a submodule only when one of its names is used.

`analyze` reads and measures a trajectory; it must not load the simulator
(`scenario`, `dynamics`) or the plotter (`svgplot`). The exports of
`risktraj` resolve on first use. The CLI's entry point, which the console
script names, runs BLAS on one thread so its output does not follow the
host's CPU count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import risktraj
from risktraj.io_formats import TrajectoryTable, write_trajectory

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


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _child_env(**overrides):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": str(SRC), **overrides}


@pytest.mark.skipif(_usable_cpus() < 2, reason="one CPU runs BLAS on one thread anyway")
def test_cli_output_does_not_follow_the_blas_thread_count(tmp_path):
    # Over 10,000 elements OpenBLAS splits np.dot across threads, which
    # moved the last bits of the damping fit with the thread count.
    t = 0.01 * np.arange(40_000)
    noise = np.random.default_rng(3).standard_normal(len(t))
    csv = tmp_path / "long.csv"
    write_trajectory(TrajectoryTable(
        t=t, signals={"r": 0.5 * np.exp(-0.01 * t) * (1.0 + 1e-3 * noise)}), csv)
    outputs = [
        subprocess.run([sys.executable, "-m", "risktraj", "analyze", str(csv),
                        "--baseline", "zero"],
                       capture_output=True, env=env, timeout=120)
        for env in (_child_env(), _child_env(OPENBLAS_NUM_THREADS="1"))
    ]
    for proc in outputs:
        assert proc.returncode == 0, proc.stderr
        assert b"lambda_hat_per_s" in proc.stdout
    assert outputs[0].stdout == outputs[1].stdout


SHOW_BLAS_THREADS = """
import os, risktraj.__main__
print(os.environ["OPENBLAS_NUM_THREADS"])
"""


@pytest.mark.parametrize("value, expected", [(None, "1"), ("2", "2")])
def test_blas_thread_setting_kept_when_set(value, expected):
    env = _child_env() if value is None else _child_env(OPENBLAS_NUM_THREADS=value)
    proc = subprocess.run([sys.executable, "-c", SHOW_BLAS_THREADS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{expected}\n"


RESOLVE_CONSOLE_SCRIPT = """
import importlib, json, sys, tomllib
with open(sys.argv[1], "rb") as fh:
    target = tomllib.load(fh)["project"]["scripts"]["risktraj"]
module, _, attr = target.partition(":")
main = getattr(importlib.import_module(module), attr)
import risktraj.cli
print(json.dumps({"target": target, "is_cli_main": main is risktraj.cli.main,
                  "scenario_loaded": "risktraj.scenario" in sys.modules}))
"""


def test_console_script_resolves_to_cli_main():
    pyproject = SRC.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-c", RESOLVE_CONSOLE_SCRIPT, str(pyproject)],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    # importing the target must neither exit nor print anything else
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["is_cli_main"], result["target"]
    assert not result["scenario_loaded"]
