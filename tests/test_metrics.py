import math

import numpy as np
import pytest

from risktraj.errors import (
    InsufficientRecoveryDataError,
    NoDampingError,
    ParameterError,
)
from risktraj.metrics import (
    MetricsConfig,
    assemble_report,
    closed_form_impact,
    cumulative_impact,
    estimate_damping,
    peak_deviation,
    recovery_time,
)
from risktraj.trajectory import TimeGrid, Trajectory

from conftest import make_exponential

DEFAULT = MetricsConfig()


class TestPeakDeviation:
    def test_monotone_decay_peaks_at_onset(self):
        traj = make_exponential(r0=2.0, lam=0.5, dt=0.01, n=2001)
        r0, t_peak = peak_deviation(traj, 0.0, 0.0)
        assert r0 == 2.0 and t_peak == 0.0

    def test_constant_at_baseline_gives_zero(self):
        grid = TimeGrid(t_start=0.0, dt=1.0, n_samples=5)
        traj = Trajectory(grid, np.full(5, 0.7))
        r0, _ = peak_deviation(traj, 0.0, 0.7)
        assert r0 == 0.0

    def test_first_attainment_tie_break(self):
        grid = TimeGrid(t_start=0.0, dt=1.0, n_samples=5)
        traj = Trajectory(grid, [0.0, 0.4, 0.9, 0.9, 0.3])
        r0, t_peak = peak_deviation(traj, 0.0, 0.0)
        assert r0 == 0.9 and t_peak == 2.0

    def test_search_starts_at_t0(self):
        grid = TimeGrid(t_start=0.0, dt=1.0, n_samples=5)
        traj = Trajectory(grid, [5.0, 0.1, 0.3, 0.2, 0.1])
        r0, t_peak = peak_deviation(traj, 1.0, 0.0)
        assert r0 == 0.3 and t_peak == 2.0

    def test_t0_out_of_range(self):
        traj = make_exponential(n=101)
        with pytest.raises(ParameterError):
            peak_deviation(traj, 1e6, 0.0)

    def test_peak_dominates_trajectory(self):
        rng = np.random.default_rng(11)
        grid = TimeGrid(t_start=0.0, dt=0.1, n_samples=300)
        traj = Trajectory(grid, rng.normal(size=300))
        r0, _ = peak_deviation(traj, 3.0, 0.2)
        i0 = grid.index_at_or_after(3.0)
        assert np.all(traj.values[i0:] - 0.2 <= r0)


class TestEstimateDamping:
    def test_exact_exponential(self):
        traj = make_exponential(r0=2.0, lam=0.5, dt=0.01, n=2001)
        lam, r2 = estimate_damping(traj, 0.0, 0.0, DEFAULT)
        assert lam == pytest.approx(0.5, rel=1e-6)
        assert r2 > 0.999999

    def test_operating_point_offset(self):
        traj = make_exponential(r0=0.7, lam=1.2, baseline=0.8, dt=0.005, n=2001)
        lam, _ = estimate_damping(traj, 0.0, 0.8, DEFAULT)
        assert lam == pytest.approx(1.2, rel=1e-6)

    def test_growing_trajectory_raises(self):
        grid = TimeGrid(t_start=0.0, dt=0.01, n_samples=500)
        traj = Trajectory(grid, np.exp(grid.times()))
        with pytest.raises(NoDampingError):
            estimate_damping(traj, 0.0, 0.0, DEFAULT)

    def test_short_segment_raises(self):
        # only 3 samples above the floor at this step size
        traj = make_exponential(r0=2.0, lam=5.0, dt=0.25, n=40)
        with pytest.raises(InsufficientRecoveryDataError):
            estimate_damping(traj, 0.0, 0.0, DEFAULT)

    def test_no_positive_deviation_raises(self):
        grid = TimeGrid(t_start=0.0, dt=1.0, n_samples=10)
        traj = Trajectory(grid, np.zeros(10))
        with pytest.raises(InsufficientRecoveryDataError):
            estimate_damping(traj, 0.0, 0.0, DEFAULT)

    def test_floor_limits_segment(self):
        # only the pre-floor prefix enters the fit: corrupt the tail and
        # check the fit does not move
        traj = make_exponential(r0=2.0, lam=0.5, dt=0.01, n=2001)
        lam_clean, _ = estimate_damping(traj, 0.0, 0.0, DEFAULT)
        values = traj.values.copy()
        tail = traj.values < 0.05 * 2.0
        values[tail] = 0.09  # still below the floor 0.1
        corrupted = Trajectory(traj.grid, values)
        lam_corrupt, _ = estimate_damping(corrupted, 0.0, 0.0, DEFAULT)
        assert lam_corrupt == lam_clean


class TestCumulativeImpact:
    def test_exponential_closed_form(self):
        traj = make_exponential(r0=2.0, lam=0.5, dt=1e-3, n=40001)
        lam, _ = estimate_damping(traj, 0.0, 0.0, DEFAULT)
        impact = cumulative_impact(traj, 0.0, 0.0, DEFAULT, lambda_hat=lam)
        assert impact == pytest.approx(4.0, rel=1e-3)

    def test_zero_trajectory(self):
        grid = TimeGrid(t_start=0.0, dt=0.1, n_samples=100)
        traj = Trajectory(grid, np.zeros(100))
        assert cumulative_impact(traj, 0.0, 0.0, DEFAULT) == 0.0

    def test_constant_rectangle(self):
        grid = TimeGrid(t_start=0.0, dt=0.1, n_samples=101)
        traj = Trajectory(grid, np.full(101, 1.5))
        config = MetricsConfig(tail_correction=False)
        assert cumulative_impact(traj, 0.0, 0.5, config) == pytest.approx(10.0, rel=1e-12)

    def test_undershoot_clamped(self):
        grid = TimeGrid(t_start=0.0, dt=1.0, n_samples=3)
        traj = Trajectory(grid, [1.0, -5.0, 1.0])
        config = MetricsConfig(tail_correction=False)
        assert cumulative_impact(traj, 0.0, 0.0, config) == 1.0

    def test_explicit_horizon(self):
        grid = TimeGrid(t_start=0.0, dt=0.1, n_samples=101)
        traj = Trajectory(grid, np.ones(101))
        config = MetricsConfig(tail_correction=False, horizon=2.0)
        assert cumulative_impact(traj, 0.0, 0.0, config) == pytest.approx(2.0, rel=1e-12)

    def test_tail_correction_adds_remainder(self):
        traj = make_exponential(r0=2.0, lam=0.5, dt=1e-3, n=10001)  # ends at t=10
        base = cumulative_impact(traj, 0.0, 0.0,
                                 MetricsConfig(tail_correction=False))
        corrected = cumulative_impact(traj, 0.0, 0.0, DEFAULT, lambda_hat=0.5)
        tail = 2.0 * math.exp(-5.0) / 0.5
        assert corrected - base == pytest.approx(tail, rel=1e-9)
        assert corrected == pytest.approx(4.0, rel=1e-4)


class TestClosedFormImpact:
    def test_basic_ratio(self):
        assert closed_form_impact(2.0, 0.5) == 4.0

    def test_zero_peak(self):
        assert closed_form_impact(0.0, 3.7) == 0.0

    def test_peak_damping_tradeoff(self):
        assert closed_form_impact(1.0, 2.0) == closed_form_impact(2.0, 4.0) == 0.5

    def test_rejects_bad_damping(self):
        for lam in (0.0, -2.0):
            with pytest.raises(ParameterError):
                closed_form_impact(1.0, lam)
        with pytest.raises(ParameterError):
            closed_form_impact(-1.0, 1.0)


class TestRecoveryTime:
    def test_exponential_band_crossing(self):
        traj = make_exponential(r0=2.0, lam=0.5, dt=0.01, n=2001)
        rec = recovery_time(traj, 0.0, 0.0, band=0.02)
        assert rec == pytest.approx(math.log(100.0) / 0.5, abs=0.011)

    def test_constant_at_baseline(self):
        grid = TimeGrid(t_start=0.0, dt=1.0, n_samples=5)
        traj = Trajectory(grid, np.full(5, 0.4))
        assert recovery_time(traj, 0.0, 0.4, band=0.1) == 0.0

    def test_never_recovered(self):
        grid = TimeGrid(t_start=0.0, dt=1.0, n_samples=5)
        traj = Trajectory(grid, np.full(5, 1.0))
        assert recovery_time(traj, 0.0, 0.0, band=0.1) is None

    def test_band_must_be_positive(self):
        traj = make_exponential(n=101)
        with pytest.raises(ParameterError):
            recovery_time(traj, 0.0, 0.0, band=0.0)


class TestAssembleReport:
    def test_exponential_report(self):
        traj = make_exponential(r0=2.0, lam=0.5, dt=1e-3, n=40001)
        report = assemble_report(traj, 0.0, DEFAULT)
        assert report.r0 == 2.0
        assert report.t_peak == 0.0
        assert report.lambda_hat == pytest.approx(0.5, rel=1e-6)
        assert report.impact_numeric == pytest.approx(4.0, rel=1e-3)
        assert report.impact_closed_form == pytest.approx(4.0, rel=1e-4)
        assert report.tail_corrected
        assert report.recovered
        assert not report.absent

    def test_zero_trajectory_flags_absent(self):
        grid = TimeGrid(t_start=0.0, dt=0.1, n_samples=100)
        report = assemble_report(Trajectory(grid, np.zeros(100)), 0.0, DEFAULT)
        assert report.r0 == 0.0
        assert report.lambda_hat is None
        assert report.impact_closed_form is None
        assert report.impact_numeric == 0.0
        assert "lambda_hat" in report.absent
        assert "impact_closed_form" in report.absent
        assert not report.tail_corrected
        assert report.recovery_time == report.t_peak

    def test_growing_trajectory_flags_absent(self):
        grid = TimeGrid(t_start=0.0, dt=0.01, n_samples=500)
        traj = Trajectory(grid, np.exp(grid.times()))
        report = assemble_report(traj, 0.0, DEFAULT)
        assert report.lambda_hat is None
        assert "lambda_hat" in report.absent
        assert not report.recovered

    def test_steady_state_baseline_mode(self):
        traj = make_exponential(r0=0.7, lam=1.2, baseline=0.8, dt=0.005, n=4001)
        config = MetricsConfig(baseline_mode="steady_state", tail_fraction=0.2)
        report = assemble_report(traj, 0.0, config)
        assert report.steady_state == pytest.approx(0.8, abs=1e-6)
        assert report.lambda_hat == pytest.approx(1.2, rel=1e-3)

    def test_scaling_covariance_single(self):
        traj = make_exponential(r0=1.5, lam=0.8, baseline=0.5, dt=0.01, n=3001)
        config = MetricsConfig(baseline_mode="steady_state", tail_fraction=0.1)
        base = assemble_report(traj, 0.0, config)
        c = 3.7
        scaled_values = base.steady_state + c * (traj.values - base.steady_state)
        scaled = assemble_report(Trajectory(traj.grid, scaled_values), 0.0, config)
        assert scaled.r0 == pytest.approx(c * base.r0, rel=1e-9)
        assert scaled.impact_numeric == pytest.approx(c * base.impact_numeric, rel=1e-9)
        assert scaled.impact_closed_form == pytest.approx(
            c * base.impact_closed_form, rel=1e-9)
        assert scaled.lambda_hat == pytest.approx(base.lambda_hat, rel=1e-9)

    def test_time_shift_invariance_single(self):
        traj = make_exponential(r0=2.0, lam=0.5, dt=0.01, n=2001)
        base = assemble_report(traj, 0.0, DEFAULT)
        delta = 17.25
        shifted_traj = Trajectory(
            TimeGrid(t_start=delta, dt=0.01, n_samples=2001), traj.values
        )
        shifted = assemble_report(shifted_traj, delta, DEFAULT)
        assert shifted.r0 == pytest.approx(base.r0, abs=1e-12)
        assert shifted.lambda_hat == pytest.approx(base.lambda_hat, abs=1e-12)
        assert shifted.impact_numeric == pytest.approx(base.impact_numeric, abs=1e-12)
        assert shifted.t_peak == pytest.approx(base.t_peak + delta, abs=1e-9)
        assert shifted.recovery_time == pytest.approx(
            base.recovery_time + delta, abs=1e-9)

    def test_one_sample_spike_report_does_not_depend_on_origin(self):
        # the peak is the spike at sample 3; the fit must start there, not
        # at sample 4, wherever the grid begins
        values = np.exp(-2.0 * 1e-3 * np.arange(4000))
        values[:3], values[3] = 0.0, 1.2
        reports = [
            assemble_report(
                Trajectory(TimeGrid(t_start=origin, dt=1e-3, n_samples=4000), values),
                origin, DEFAULT)
            for origin in (0.0, 1e6)
        ]
        assert [r.t_peak - o for r, o in zip(reports, (0.0, 1e6))] == pytest.approx(
            [0.003, 0.003], abs=1e-9)
        assert reports[1].lambda_hat == pytest.approx(reports[0].lambda_hat, rel=1e-12)
        assert reports[1].fit_quality == pytest.approx(reports[0].fit_quality, rel=1e-12)
        assert reports[1].recovery_time - 1e6 == pytest.approx(
            reports[0].recovery_time, abs=1e-9)


class TestMetricsConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            MetricsConfig(baseline_mode="median")
        with pytest.raises(ParameterError):
            MetricsConfig(fit_floor_ratio=0.0)
        with pytest.raises(ParameterError):
            MetricsConfig(fit_floor_ratio=1.0)
        with pytest.raises(ParameterError):
            MetricsConfig(min_fit_samples=2)
        with pytest.raises(ParameterError):
            MetricsConfig(tail_fraction=0.0)
        with pytest.raises(ParameterError):
            MetricsConfig(recovery_band_ratio=0.0)
