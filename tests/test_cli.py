import hashlib
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import risktraj
from risktraj.cli import _parse_range, main
from risktraj.config import MAX_STEPS
from risktraj.errors import RisktrajError
from risktraj.io_formats import (
    DEFAULT_CONFIG_PATH,
    TrajectoryTable,
    read_report,
    read_trajectory,
    report_from_text,
    write_trajectory,
)

FAST = ["--set", "integrator.dt_s=0.01", "--set", "integrator.t_end_s=72"]
COARSE_SWEEP = ["--set", "integrator.dt_s=0.02", "--set", "integrator.t_end_s=60"]


def write_exp_csv(path, lam=0.5, r0=2.0, dt=0.01, n=3001):
    t = dt * np.arange(n)
    write_trajectory(
        TrajectoryTable(t=t, signals={"r": r0 * np.exp(-lam * t)}), path
    )


class TestSimulate:
    def test_writes_trajectory_and_report(self, tmp_path, capsys):
        out = tmp_path / "run1"
        code = main(["simulate", "--case", "passive", "--config", "default",
                     "--out", str(out), *FAST])
        assert code == 0
        table = read_trajectory(out / "passive_trajectory.csv")
        assert table.column_names == ("t", "E", "P_in", "P_load", "r")
        doc = read_report(out / "passive_report.txt")
        assert doc.case_id == "passive"
        assert doc.r0 > 0.0

    def test_plot_flag(self, tmp_path):
        out = tmp_path / "run2"
        code = main(["simulate", "--case", "reactive", "--out", str(out),
                     *FAST, "--plot"])
        assert code == 0
        assert (out / "reactive.svg").read_text().count("<polyline") == 2

    def test_dt_override_changes_row_count(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        common = ["simulate", "--case", "passive",
                  "--set", "integrator.t_end_s=12",
                  "--set", "disturbance.kind=none"]
        assert main([*common, "--set", "integrator.dt_s=0.01",
                     "--out", str(out_a)]) == 0
        assert main([*common, "--set", "integrator.dt_s=0.005",
                     "--out", str(out_b)]) == 0
        rows_a = len(read_trajectory(out_a / "passive_trajectory.csv").t)
        rows_b = len(read_trajectory(out_b / "passive_trajectory.csv").t)
        assert rows_a == 1201
        assert rows_b == 2401

    def test_deterministic_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--case", "anticipatory", *FAST]
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        for name in ("anticipatory_trajectory.csv", "anticipatory_report.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_writes_the_bytes_of_compare(self, tmp_path, capsys):
        cmp_out = tmp_path / "cmp"
        assert main(["compare", "--out", str(cmp_out), *COARSE_SWEEP]) == 0
        for case in ("passive", "reactive", "anticipatory"):
            out = tmp_path / case
            assert main(["simulate", "--case", case, "--out", str(out),
                         *COARSE_SWEEP]) == 0
            for name in (f"{case}_trajectory.csv", f"{case}_report.txt"):
                assert (out / name).read_bytes() == (cmp_out / name).read_bytes()
            assert capsys.readouterr().out.endswith(
                f"wrote {out / f'{case}_trajectory.csv'}\n"
                f"wrote {out / f'{case}_report.txt'}\n")

    def test_unknown_case_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", "--case", "bogus", "--out", "x"])
        assert exc_info.value.code == 2

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--case", "passive",
                     "--config", str(tmp_path / "none.ini"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bad_override_key(self, tmp_path, capsys):
        code = main(["simulate", "--case", "passive",
                     "--out", str(tmp_path / "o"),
                     "--set", "integrator.step=0.1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestBadConfigValues:
    @pytest.mark.parametrize("override", [
        "policy.anticipatory.gain_W_per_J=nan",
        "policy.passive.P0_W=inf",
        "metrics.horizon_s=abc",
        "metrics.min_fit_samples=3.9",
    ])
    def test_rejected_as_bad_number(self, tmp_path, capsys, override):
        code = main(["simulate", "--case", "passive",
                     "--out", str(tmp_path / "o"), "--set", override])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad number for [")
        assert not (tmp_path / "o" / "passive_trajectory.csv").exists()

    @pytest.mark.parametrize("content", [
        b"[energy\nfoo\n",
        b"[energy]\nE_max_J = 100 \xb5\n",
    ])
    def test_malformed_ini(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(content)
        code = main(["simulate", "--case", "passive", "--config", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config parse failed") and err.count("\n") == 1


class TestAnalyze:
    def test_matches_generator_rate(self, tmp_path, capsys):
        csv = tmp_path / "exp.csv"
        write_exp_csv(csv, lam=0.8)
        code = main(["analyze", str(csv), "--t0", "0"])
        assert code == 0
        doc = report_from_text(capsys.readouterr().out)
        assert doc.lambda_hat == pytest.approx(0.8, rel=1e-4)
        assert doc.case_id == "external"

    def test_zero_trajectory_degenerate_but_ok(self, tmp_path, capsys):
        csv = tmp_path / "zero.csv"
        t = 0.1 * np.arange(100)
        write_trajectory(TrajectoryTable(t=t, signals={"r": np.zeros(100)}), csv)
        code = main(["analyze", str(csv)])
        assert code == 0
        doc = report_from_text(capsys.readouterr().out)
        assert doc.r0 == 0.0
        assert doc.lambda_hat is None
        assert "lambda_hat" in doc.absent

    def test_t0_past_end(self, tmp_path, capsys):
        csv = tmp_path / "exp.csv"
        write_exp_csv(csv)
        code = main(["analyze", str(csv), "--t0", "1e9"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_nan_file_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,r\n0,1\n0.5,nan\n1,0.5\n")
        code = main(["analyze", str(bad)])
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_time_steps_rejected(self, tmp_path, capsys):
        bad = tmp_path / "wide.csv"
        bad.write_text("t,r\n-1e308,0\n1e308,1\n")
        assert main(["analyze", str(bad)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the steps of t overflow\n"

    def test_non_utf8_file_rejected(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"t,r\n0,1\n0.5,0.5\n1,0.25 \xb5\n")
        code = main(["analyze", str(bad)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_t0_nan_rejected(self, tmp_path, capsys):
        csv = tmp_path / "exp.csv"
        write_exp_csv(csv)
        code = main(["analyze", str(csv), "--t0", "nan"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: time nan is not finite")

    def test_negative_t0_after_a_space(self, tmp_path, capsys):
        # argparse alone reads "-1e3" after a space as an option
        csv = tmp_path / "exp.csv"
        t = np.arange(-2000.0, 1001.0)
        write_trajectory(TrajectoryTable(t=t, signals={"r": np.exp(-0.01 * (t + 2000))}),
                         csv)
        outputs = []
        for flags in (["--t0", "-1e3"], ["--t0=-1e3"]):
            assert main(["analyze", str(csv), *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert report_from_text(outputs[0]).t0 == -1000.0
        assert outputs[0] == outputs[1]

    def test_negative_infinite_t0_after_a_space(self, tmp_path, capsys):
        csv = tmp_path / "exp.csv"
        write_exp_csv(csv)
        assert main(["analyze", str(csv), "--t0", "-inf"]) == 1
        assert capsys.readouterr().err == "error: time -inf is not finite\n"

    def test_help_after_a_flag(self, tmp_path, capsys):
        # only numbers and ranges are joined to the word before them
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(tmp_path / "x.csv"), "--no-tail-correction", "-h"])
        assert exc.value.code == 0
        assert "usage: risktraj analyze" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, message", [
        (["--horizon", "nan"], "horizon must be finite"),
        (["--horizon", "inf"], "horizon must be finite"),
        (["--recovery-band-ratio", "nan"], "recovery_band_ratio must be finite"),
        (["--recovery-band-ratio", "inf"], "recovery_band_ratio must be finite"),
        (["--recovery-band-ratio", "0"], "recovery_band_ratio must be finite"),
    ])
    def test_non_finite_metric_flags_rejected(self, tmp_path, capsys, flags, message):
        csv = tmp_path / "exp.csv"
        write_exp_csv(csv)
        code = main(["analyze", str(csv), *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("values, baseline", [
        ([1.7e308], "zero"),
        ([1.7e308, 1.6e308], "zero"),
        ([1.7e308, 1.6e308], "steady_state"),
        ([1.7e308, -1.7e308], "steady_state"),
    ])
    def test_overflowing_metrics_print_one_error_line(self, tmp_path, capsys, values,
                                                      baseline):
        # Near the float limit the quadrature and the tail mean overflow;
        # the report's finiteness check is then all that is printed.
        csv = tmp_path / "big.csv"
        write_trajectory(TrajectoryTable(
            t=0.01 * np.arange(2000), signals={"r": np.resize(values, 2000)}), csv)
        assert main(["analyze", str(csv), "--baseline", baseline]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be finite" in err

    def test_digest_of_the_bytes_parsed(self, tmp_path, capsys, monkeypatch):
        # The input is read once: the digest is of the bytes that were
        # parsed, even when the file changes after the read.
        csv = tmp_path / "exp.csv"
        write_exp_csv(csv)
        parsed = csv.read_bytes()
        read = risktraj.cli.read_trajectory

        def read_then_change(source, digest):
            table = read(source, digest)
            Path(source).write_text("t,r\n0,0\n1,0\n")
            return table

        monkeypatch.setattr(risktraj.cli, "read_trajectory", read_then_change)
        assert main(["analyze", str(csv)]) == 0
        doc = report_from_text(capsys.readouterr().out)
        assert doc.config_digest == "sha256:" + hashlib.sha256(parsed).hexdigest()[:16]
        assert doc.r0 == pytest.approx(2.0)

    def test_output_file(self, tmp_path):
        csv = tmp_path / "exp.csv"
        write_exp_csv(csv)
        out = tmp_path / "report.txt"
        assert main(["analyze", str(csv), "--out", str(out)]) == 0
        assert read_report(out).r0 == pytest.approx(2.0)

    def test_steady_state_flag(self, tmp_path, capsys):
        csv = tmp_path / "offset.csv"
        t = 0.01 * np.arange(3001)
        write_trajectory(
            TrajectoryTable(
                t=t, signals={"r": 0.3 + 0.7 * np.exp(-1.2 * t)}
            ),
            csv,
        )
        code = main(["analyze", str(csv), "--baseline", "steady_state",
                     "--tail-fraction", "0.2"])
        assert code == 0
        doc = report_from_text(capsys.readouterr().out)
        assert doc.lambda_hat == pytest.approx(1.2, rel=1e-3)
        assert doc.steady_state == pytest.approx(0.3, abs=1e-4)


class TestCompare:
    def test_outputs_and_summary(self, tmp_path):
        out = tmp_path / "cmp"
        code = main(["compare", "--out", str(out), *FAST])
        assert code == 0
        for case in ("passive", "reactive", "anticipatory"):
            assert (out / f"{case}_trajectory.csv").exists()
            assert (out / f"{case}_report.txt").exists()
        summary = (out / "comparison.txt").read_text()
        assert "r0_ordering_holds = " in summary
        assert "impact_ordering_holds = " in summary
        # impact and its closed form side by side for every case
        for case in ("passive", "reactive", "anticipatory"):
            assert f"{case}.impact_numeric = " in summary
            assert f"{case}.impact_closed_form = " in summary
        svg = (out / "comparison.svg").read_text()
        assert svg.count("<polyline") == 6

    def test_coarse_step_advisory_is_one_warning_line(self, tmp_path, capsys):
        code = main(["compare", "--out", str(tmp_path), "--set", "integrator.dt_s=2"])
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: pulse duration 12.0 is below 10*dt=20.0; "
            "edge errors may dominate\n"
        )


class TestSweep:
    def test_single_point_matches_compare(self, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        code = main(["sweep", "--param", "disturbance.magnitude",
                     "--range", "0.15:0.15:1", "--out", str(sweep_out), *FAST])
        assert code == 0
        lines = sweep_out.read_text().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert header[0] == "value"
        assert float(row[0]) == 0.15

        cmp_out = tmp_path / "cmp"
        assert main(["compare", "--out", str(cmp_out), *FAST]) == 0
        doc = read_report(cmp_out / "passive_report.txt")
        assert float(row[header.index("passive_r0")]) == doc.r0
        assert float(row[header.index("passive_impact")]) == doc.impact_numeric

    def test_rows_ordered_by_value(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--param", "disturbance.magnitude",
                     "--range", "0.1:0.5:3", "--out", str(out), *FAST,
                     "--set", "integrator.t_end_s=60"])
        assert code == 0
        lines = out.read_text().splitlines()
        values = [float(line.split(",")[0]) for line in lines[1:]]
        assert values == sorted(values) and len(values) == 3

    def test_stop_below_start(self, tmp_path, capsys):
        code = main(["sweep", "--param", "disturbance.magnitude",
                     "--range", "0.5:0.1:3", "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("param, runs", [
        ("policy.anticipatory.gain_W_per_J", 2 + 3),  # passive, reactive once
        ("solar.P_peak_W", 3 * 3),
    ])
    def test_unchanged_cases_run_once(self, tmp_path, monkeypatch, param, runs):
        calls = []
        run_case = risktraj.scenario.run_case

        def counted(case_id, config):
            calls.append(case_id)
            return run_case(case_id, config)

        monkeypatch.setattr(risktraj.scenario, "run_case", counted)
        assert main(["sweep", "--param", param, "--range", "8:12:3",
                     "--out", str(tmp_path / "s.csv"), *COARSE_SWEEP]) == 0
        assert len(calls) == runs

    def test_reuse_matches_per_value_runs(self, tmp_path):
        # Each 1-point sweep runs all three cases; together they must give
        # the bytes of the 3-point sweep that reuses passive and reactive.
        def sweep(spec, name):
            out = tmp_path / name
            assert main(["sweep", "--param", "policy.anticipatory.gain_W_per_J",
                         "--range", spec, "--out", str(out), *COARSE_SWEEP]) == 0
            return out.read_text().splitlines()

        whole = sweep("0:2:3", "whole.csv")
        parts = [sweep(f"{v}:{v}:1", f"{v}.csv") for v in ("0", "1", "2")]
        assert whole == parts[0][:1] + [part[1] for part in parts]

    def test_reads_its_config_once(self, tmp_path, monkeypatch):
        reads = []
        read_config_parser = risktraj.cli.read_config_parser

        def counted(source):
            reads.append(source)
            return read_config_parser(source)

        monkeypatch.setattr(risktraj.cli, "read_config_parser", counted)
        assert main(["sweep", "--param", "policy.anticipatory.gain_W_per_J",
                     "--range", "0:2:3", "--out", str(tmp_path / "s.csv"),
                     *COARSE_SWEEP]) == 0
        assert reads == [DEFAULT_CONFIG_PATH]

    @pytest.mark.parametrize("count", [str(10**12), str(MAX_STEPS + 1)])
    def test_huge_count_rejected_before_allocation(self, count):
        with pytest.raises(RisktrajError, match="range count"):
            _parse_range(f"0:1:{count}")

    @pytest.mark.parametrize("spec", ["1:inf:2", "-inf:0:2", "nan:1:1"])
    def test_non_finite_range_rejected(self, tmp_path, capsys, spec):
        with pytest.raises(RisktrajError, match="finite start and stop"):
            _parse_range(spec)
        code = main(["sweep", "--param", "solar.P_peak_W", "--range", spec,
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: range {spec!r} must have a finite start and stop\n")
        assert not (tmp_path / "s.csv").exists()

    def test_negative_start_after_a_space(self, tmp_path):
        # argparse alone reads "-1:1:3" after a space as an option
        outs = [tmp_path / "spaced.csv", tmp_path / "joined.csv"]
        for out, spec in zip(outs, (["--range", "-1:1:3"], ["--range=-1:1:3"])):
            assert main(["sweep", "--param", "policy.anticipatory.E_target_J", *spec,
                         "--out", str(out), *COARSE_SWEEP]) == 0
        lines = outs[0].read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["-1", "0", "1"]
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_count_at_limit_accepted(self, monkeypatch):
        # linspace is stubbed so the limit is checked without allocating
        monkeypatch.setattr(np, "linspace", lambda start, stop, count: count)
        assert _parse_range(f"0:1:{MAX_STEPS}") == MAX_STEPS

    def test_non_sweepable_parameter(self, tmp_path, capsys):
        code = main(["sweep", "--param", "nosuch.key",
                     "--range", "0:1:2", "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
class TestExtremeConfigs:
    """Configs that parse but push the numerics to overflow, run silently."""

    COARSE = ["simulate", "--case", "anticipatory", "--set", "integrator.dt_s=0.5"]

    @pytest.mark.parametrize("override, key", [
        # P0*horizon and the forecast inflow overflow; inf - inf never sheds
        ("policy.anticipatory.horizon_s=1e308", "[policy.anticipatory] horizon_s"),
        # 2*pi*t/period overflows, so the input would be NaN
        ("solar.period_s=1e-320", "[solar] period_s"),
    ])
    def test_rejected_naming_the_key(self, tmp_path, capsys, override, key):
        code = main([*self.COARSE, "--out", str(tmp_path), "--set", override])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    def test_huge_gain_clips_the_recorded_load(self, tmp_path):
        code = main([*self.COARSE, "--out", str(tmp_path),
                     "--set", "policy.anticipatory.gain_W_per_J=1e308"])
        assert code == 0
        table = read_trajectory(tmp_path / "anticipatory_trajectory.csv")
        short = table.signals["E"] < 48.0
        assert short.any()
        assert np.all(table.signals["P_load"][short] == 2.75 * 0.5)


class TestEmitPlot:
    def test_from_simulated_csvs(self, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--out", str(out), *FAST]) == 0
        fig = tmp_path / "fig.svg"
        code = main(["emit-plot",
                     str(out / "passive_trajectory.csv"),
                     str(out / "reactive_trajectory.csv"),
                     "--config", "default", "--out", str(fig)])
        assert code == 0
        text = fig.read_text()
        assert text.count("<polyline") == 4
        assert "passive_trajectory" in text

    def test_config_with_a_partial_step(self, tmp_path, capsys):
        assert main(["simulate", "--case", "passive", "--out", str(tmp_path), *FAST]) == 0
        ini = tmp_path / "partial.ini"
        ini.write_text(DEFAULT_CONFIG_PATH.read_text().replace(
            "dt_s = 0.005", "dt_s = 0.007"))
        fig = tmp_path / "fig.svg"
        code = main(["emit-plot", str(tmp_path / "passive_trajectory.csv"),
                     "--config", str(ini), "--out", str(fig)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: (t_end - t_start)/dt = ") and err.count("\n") == 1
        assert not fig.exists()

    def test_config_with_a_horizon_before_the_onset(self, tmp_path, capsys):
        assert main(["simulate", "--case", "passive", "--out", str(tmp_path), *FAST]) == 0
        ini = tmp_path / "early.ini"
        ini.write_text(DEFAULT_CONFIG_PATH.read_text().replace(
            "horizon_s = end", "horizon_s = 20"))
        fig = tmp_path / "fig.svg"
        code = main(["emit-plot", str(tmp_path / "passive_trajectory.csv"),
                     "--config", str(ini), "--out", str(fig)])
        assert code == 1
        assert capsys.readouterr().err == "error: horizon 20.0 precedes t0 27.0\n"
        assert not fig.exists()

    def test_label_with_markup_characters(self, tmp_path):
        assert main(["simulate", "--case", "passive", "--out", str(tmp_path), *FAST]) == 0
        csv = tmp_path / "a&b<1>.csv"
        (tmp_path / "passive_trajectory.csv").rename(csv)
        fig = tmp_path / "fig.svg"
        assert main(["emit-plot", str(csv), "--out", str(fig)]) == 0
        texts = [el.text for el in ElementTree.parse(fig).iter()
                 if el.tag.endswith("text")]
        assert "a&b<1>" in texts


def _child_env():
    """Environment whose python imports the same risktraj as this test."""
    src = str(Path(risktraj.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}


class TestModuleInvocation:
    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "risktraj", "simulate", "--case", "passive",
             "--out", str(out), *FAST],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "passive_trajectory.csv").exists()

    def test_exit_codes_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "risktraj", "simulate", "--case", "bogus",
             "--out", "x"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 2
