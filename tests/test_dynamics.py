import math
import warnings

import numpy as np
import pytest

from risktraj.config import DisturbanceSignal, IntegratorConfig
from risktraj.dynamics import DynamicalSystem, integrate, linear_decay_system
from risktraj.errors import (
    ConfigurationError,
    IntegrationDivergedError,
    ParameterError,
)

NO_DIST = DisturbanceSignal(kind="none")


def run(system, x0, config, disturbance=NO_DIST):
    return integrate(system, np.asarray(x0, dtype=float), disturbance, config)


class TestDisturbance:
    def test_none_returns_neutral(self):
        sig = DisturbanceSignal(kind="none")
        assert sig.sample(np.array([-5.0])).tolist() == [1.0]

    def test_pulse_window(self):
        sig = DisturbanceSignal(kind="pulse", onset=5.0, duration=2.0, magnitude=0.2)
        assert sig.sample(np.array([6.0, 5.0])).tolist() == [0.2, 0.2]

    def test_half_open_boundary(self):
        sig = DisturbanceSignal(kind="pulse", onset=5.0, duration=2.0, magnitude=0.2)
        assert sig.sample(np.array([7.0, 4.999])).tolist() == [1.0, 1.0]

    def test_window(self):
        sig = DisturbanceSignal(kind="pulse", onset=5.0, duration=2.0, magnitude=0.2)
        assert sig.window == (5.0, 7.0)
        # a pulse's fields without kind "pulse" are no window
        assert DisturbanceSignal(onset=5.0, duration=2.0, magnitude=0.2).window is None

    def test_bad_kind(self):
        with pytest.raises(ParameterError):
            DisturbanceSignal(kind="step")

    def test_negative_duration(self):
        with pytest.raises(ParameterError):
            DisturbanceSignal(kind="pulse", onset=0.0, duration=-1.0, magnitude=0.5)


class TestIntegrate:
    def test_exponential_decay_oracle(self):
        result = run(
            linear_decay_system(1.0), [1.0],
            IntegratorConfig(dt=1e-3, t_start=0.0, t_end=1.0),
        )
        assert abs(result.states[0].values[-1] - math.exp(-1.0)) < 1e-10

    def test_unit_slope_exact(self):
        system = DynamicalSystem(rhs=lambda x, d, _m: 1.0)
        result = run(system, [0.0],
                     IntegratorConfig(dt=0.01, t_start=0.0, t_end=2.0))
        assert result.states[0].values[-1] == pytest.approx(2.0, rel=1e-13)

    def test_grid_includes_both_ends(self):
        result = run(linear_decay_system(1.0), [1.0],
                     IntegratorConfig(dt=0.25, t_start=1.0, t_end=3.0))
        t = result.grid.times()
        assert t[0] == 1.0 and t[-1] == 3.0 and len(t) == 9

    def test_rk4_convergence_order(self):
        errors = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            result = run(linear_decay_system(1.0), [1.0],
                         IntegratorConfig(dt=dt, t_start=0.0, t_end=1.0))
            errors.append(abs(result.states[0].values[-1] - math.exp(-1.0)))
        for e_coarse, e_fine in zip(errors, errors[1:]):
            ratio = e_coarse / e_fine
            assert 14.0 <= ratio <= 18.0
            assert 3.7 <= math.log2(ratio) <= 4.3

    def test_equilibrium_preserved_exactly(self):
        system = DynamicalSystem(rhs=lambda x, d, _m: -(x - 2.0))
        result = run(system, [2.0],
                     IntegratorConfig(dt=0.1, t_start=0.0, t_end=10.0))
        assert np.all(result.states[0].values == 2.0)

    def test_deterministic_bit_identical(self):
        config = IntegratorConfig(dt=0.01, t_start=0.0, t_end=3.0)
        a = run(linear_decay_system(0.7), [2.0], config)
        b = run(linear_decay_system(0.7), [2.0], config)
        assert np.array_equal(a.states[0].values, b.states[0].values)

    def test_time_shift_equivariance(self):
        # dyadic dt and integer shift keep the arithmetic exactly equal
        dt = 1.0 / 128.0
        system = DynamicalSystem(rhs=lambda x, d, _m: d)
        shift = 5.0

        base = run(
            system, [0.0],
            IntegratorConfig(dt=dt, t_start=0.0, t_end=8.0),
            DisturbanceSignal(kind="pulse", onset=2.0, duration=3.0, magnitude=1.5),
        )
        moved = run(
            system, [0.0],
            IntegratorConfig(dt=dt, t_start=shift, t_end=8.0 + shift),
            DisturbanceSignal(kind="pulse", onset=2.0 + shift, duration=3.0,
                              magnitude=1.5),
        )
        assert np.array_equal(base.states[0].values, moved.states[0].values)
        assert np.array_equal(base.grid.times() + shift, moved.grid.times())

    def test_disturbance_sampled_at_substeps(self):
        seen = []

        def rhs(x, d, _m):
            seen.append(d)
            return 0.0

        run(
            DynamicalSystem(rhs=rhs),
            [0.0],
            IntegratorConfig(dt=1.0, t_start=0.0, t_end=1.0),
            DisturbanceSignal(kind="pulse", onset=0.5, duration=10.0, magnitude=0.2),
        )
        assert seen == [1.0, 0.2, 0.2, 0.2]

    def test_divergence_reports_time(self):
        system = DynamicalSystem(rhs=lambda x, d, _m: x * x)
        with pytest.raises(IntegrationDivergedError) as exc_info:
            run(system, [10.0], IntegratorConfig(dt=0.05, t_start=0.0, t_end=5.0))
        assert 0.0 < exc_info.value.time <= 5.0

    def test_step_limit(self):
        with pytest.raises(ConfigurationError):
            IntegratorConfig(dt=1e-9, t_start=0.0, t_end=100.0)

    def test_invalid_step_sizes(self):
        with pytest.raises(ConfigurationError):
            IntegratorConfig(dt=0.0, t_start=0.0, t_end=1.0)
        with pytest.raises(ConfigurationError):
            IntegratorConfig(dt=2.0, t_start=0.0, t_end=1.0)

    def test_non_integral_span(self):
        with pytest.raises(ConfigurationError):
            IntegratorConfig(dt=0.3, t_start=0.0, t_end=1.0)

    def test_x0_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            run(linear_decay_system(1.0), [1.0, 2.0],
                IntegratorConfig(dt=0.1, t_start=0.0, t_end=1.0))

    def test_non_finite_x0(self):
        with pytest.raises(ParameterError, match=r"^x0 must be finite$"):
            integrate(linear_decay_system(1.0), math.nan, NO_DIST,
                      IntegratorConfig(dt=0.1, t_start=0.0, t_end=1.0))

    def test_float_x0_matches_length1_array(self):
        config = IntegratorConfig(dt=0.1, t_start=0.0, t_end=1.0)
        a = integrate(linear_decay_system(1.0), 2.0, NO_DIST, config)
        b = run(linear_decay_system(1.0), [2.0], config)
        assert np.array_equal(a.states[0].values, b.states[0].values)

    def test_short_pulse_warns(self):
        config = IntegratorConfig(dt=0.1, t_start=0.0, t_end=2.0)
        sig = DisturbanceSignal(kind="pulse", onset=1.0, duration=0.5, magnitude=0.2)
        with pytest.warns(UserWarning, match="duration"):
            run(linear_decay_system(1.0), [1.0], config, sig)
        # without a pulse the duration is not read
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(linear_decay_system(1.0), [1.0], config,
                DisturbanceSignal(kind="none", duration=0.5))

    def test_mode_updates_once_per_step(self):
        # mode counts steps; rhs slope follows the frozen mode
        update_steps = []

        def mode_update(k, x, mode):
            update_steps.append(k)
            return mode + 1

        system = DynamicalSystem(
            rhs=lambda x, d, mode: float(mode),
            mode_update=mode_update,
            mode_init=0,
        )
        result = run(system, [0.0], IntegratorConfig(dt=0.5, t_start=0.0, t_end=2.0))
        assert result.modes == (1, 2, 3, 4, 5)
        assert update_steps == [0, 1, 2, 3, 4]
        # slopes 1,2,3,4 over the four panels
        assert np.allclose(np.diff(result.states[0].values), [0.5, 1.0, 1.5, 2.0])

    def test_unhashable_mode_without_free_flight(self):
        # only a free-flight table looks the mode up, so a list may serve as one
        system = DynamicalSystem(
            rhs=lambda x, d, mode: float(len(mode)),
            mode_update=lambda k, x, mode: mode + [k],
            mode_init=[],
        )
        result = run(system, [0.0], IntegratorConfig(dt=0.5, t_start=0.0, t_end=1.0))
        assert result.modes == ([0], [0, 1], [0, 1, 2])
        assert np.array_equal(result.states[0].values, [0.0, 0.5, 1.5])

    def test_rhs_alone_integrates_with_every_default(self):
        config = IntegratorConfig(dt=0.1, t_start=0.0, t_end=1.0)
        result = run(DynamicalSystem(rhs=lambda x, u, _m: -x), [1.0], config)
        assert result.modes == (None,) * (config.n_steps() + 1)
        assert result.observable.grid == result.states[0].grid
        assert np.array_equal(result.observable.values, result.states[0].values)

    @pytest.mark.parametrize("hook", [
        "rhs", "output_map", "mode_update", "project", "forcing", "free_flight"])
    def test_hook_passed_as_none_is_refused(self, hook):
        with pytest.raises(ParameterError, match=f"^{hook} must not be None"):
            DynamicalSystem(**{"rhs": lambda x, u, _m: -x, hook: None})


class TestLinearDecaySystem:
    def test_matches_analytic_solution(self):
        result = run(linear_decay_system(0.5), [2.0],
                     IntegratorConfig(dt=1e-3, t_start=0.0, t_end=10.0))
        t = result.grid.times()
        assert np.max(np.abs(result.states[0].values - 2.0 * np.exp(-0.5 * t))) < 1e-9

    def test_equilibrium_start_stays_zero(self):
        result = run(linear_decay_system(1.0), [0.0],
                     IntegratorConfig(dt=0.01, t_start=0.0, t_end=5.0))
        assert np.all(result.states[0].values == 0.0)

    def test_half_life_scales_inversely(self):
        def first_crossing(lam):
            result = run(linear_decay_system(lam), [1.0],
                         IntegratorConfig(dt=1e-3, t_start=0.0, t_end=4.0))
            values = result.states[0].values
            idx = int(np.argmax(values <= 0.5))
            return result.grid.time_at(idx)

        t1, t2 = first_crossing(1.0), first_crossing(2.0)
        assert abs(t1 - 2.0 * t2) <= 2e-3
        assert abs(t1 - math.log(2.0)) <= 2e-3

    def test_output_map_is_identity(self):
        result = run(linear_decay_system(1.0), [3.0],
                     IntegratorConfig(dt=0.1, t_start=0.0, t_end=1.0))
        assert np.array_equal(result.observable.values, result.states[0].values)

    def test_rejects_nonpositive_rate(self):
        for lam in (0.0, -1.0):
            with pytest.raises(ParameterError):
                linear_decay_system(lam)
