"""The package loads a submodule only when one of its names is used.

`analyze` reads and measures a trajectory; it must not load the simulator
(`scenario`, `dynamics`), the config types (`config`), the plotter
(`svgplot`) or `configparser`. `emit-plot --config` builds a config
without the simulator. No command loads `dataclasses`: the records are
built without generated code. The exports of `risktraj` resolve on first use.
The CLI's entry point, which the console script names, runs BLAS on one
thread so its output does not follow the host's CPU count; it pauses the
garbage collector over its imports and freezes what is left at exit, and
`cli.main` leaves the collector alone.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import risktraj
import risktraj.cli
from risktraj.io_formats import TrajectoryTable, write_trajectory

SRC = Path(__file__).resolve().parents[1] / "src"

LOADED_BY_A_COMMAND = """
import json, sys
import risktraj.cli

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith("risktraj") or m in ("configparser", "dataclasses"))

before = loaded()
code = risktraj.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "before": before, "after": loaded()}), file=sys.stderr)
"""


def _modules_loaded_by(args):
    """What `risktraj.cli.main(args)` prints, and the risktraj modules (and
    configparser and dataclasses) loaded before and after it, in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", LOADED_BY_A_COMMAND, *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stderr.splitlines()[-1])
    assert result["code"] == 0, proc.stderr
    return proc.stdout, (result["before"], result["after"])


def _write_short_csv(path):
    path.write_text("t,E,r\n0,50,0.5\n1,50,0.25\n2,50,0.125\n3,50,0\n")
    return path


def test_analyze_leaves_the_simulator_unloaded(tmp_path):
    csv = _write_short_csv(tmp_path / "r.csv")
    out, modules = _modules_loaded_by(["analyze", str(csv)])
    assert "schema = risktraj.report.v1" in out
    for loaded in modules:
        assert "risktraj.io_formats" in loaded
        assert "risktraj.scenario" not in loaded
        assert "risktraj.dynamics" not in loaded
        assert "risktraj.config" not in loaded
        assert "risktraj.svgplot" not in loaded
        assert "configparser" not in loaded


def test_emit_plot_builds_its_config_without_the_simulator(tmp_path):
    csv = _write_short_csv(tmp_path / "r.csv")
    svg = tmp_path / "r.svg"
    out, (_, after) = _modules_loaded_by(["emit-plot", str(csv), "--config", "default",
                                          "--out", str(svg)])
    assert out == f"wrote {svg}\n"
    assert "risktraj.config" in after
    assert "risktraj.scenario" not in after
    assert "risktraj.dynamics" not in after


@pytest.mark.parametrize("command", [
    ["analyze", "{csv}"],
    ["emit-plot", "{csv}", "--config", "default", "--out", "{dir}/r.svg"],
    ["simulate", "--case", "reactive", "--config", "default",
     "--set", "integrator.dt_s=0.5", "--out", "{dir}"],
])
def test_no_command_loads_dataclasses(tmp_path, command):
    csv = _write_short_csv(tmp_path / "r.csv")
    args = [arg.format(csv=csv, dir=tmp_path) for arg in command]
    _, (before, after) = _modules_loaded_by(args)
    assert "dataclasses" not in before + after


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
    assert not hasattr(risktraj, "input_power")  # defined, but not exported


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


GC_AFTER_THE_ENTRY_POINT = """
import gc, json, sys
if sys.argv[1] == "off":
    gc.disable()
import risktraj.__main__
print(json.dumps([gc.isenabled(), gc.get_freeze_count()]))
"""


@pytest.mark.parametrize("state", ["on", "off"])
def test_entry_point_restores_the_collector(state):
    # the freeze is registered for exit and has not run yet
    proc = subprocess.run([sys.executable, "-c", GC_AFTER_THE_ENTRY_POINT, state],
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [state == "on", 0]


@pytest.mark.parametrize("enabled", [True, False])
def test_cli_main_leaves_the_collector_alone(tmp_path, capsys, enabled):
    csv = _write_short_csv(tmp_path / "r.csv")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        before = (gc.isenabled(), gc.get_freeze_count())
        assert risktraj.cli.main(["analyze", str(csv)]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_module_output_equals_in_process_output(tmp_path, capsys):
    csv = _write_short_csv(tmp_path / "r.csv")
    proc = subprocess.run([sys.executable, "-m", "risktraj", "analyze", str(csv)],
                          capture_output=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert risktraj.cli.main(["analyze", str(csv)]) == 0
    assert proc.stdout == capsys.readouterr().out.encode()


def test_module_reports_bad_input_in_one_error_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,r\n0,1\n0.5,nan\n1,0.5\n")
    proc = subprocess.run([sys.executable, "-m", "risktraj", "analyze", str(bad)],
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
