import math

import numpy as np
import pytest

from risktraj.errors import ParameterError
from risktraj.trajectory import TimeGrid, Trajectory, estimate_steady_state


def exp_by_series(x):
    """Exponential via Taylor series, independent of math.exp."""
    if x < 0:
        return 1.0 / exp_by_series(-x)
    total, term, k = 1.0, 1.0, 0
    while True:
        k += 1
        term *= x / k
        new = total + term
        if new == total:
            return total
        total = new


class TestTimeGrid:
    def test_times_are_multiply_form(self):
        grid = TimeGrid(t_start=3.0, dt=0.1, n_samples=1000)
        t = grid.times()
        expected = np.array([3.0 + k * 0.1 for k in range(1000)])
        assert np.array_equal(t, expected)
        assert grid.time_at(999) == t[-1]

    def test_validation(self):
        with pytest.raises(ParameterError):
            TimeGrid(t_start=0.0, dt=0.0, n_samples=5)
        with pytest.raises(ParameterError):
            TimeGrid(t_start=0.0, dt=-1.0, n_samples=5)
        with pytest.raises(ParameterError):
            TimeGrid(t_start=0.0, dt=1.0, n_samples=1)
        with pytest.raises(ParameterError, match=r"^t_start must be finite, got inf$"):
            TimeGrid(t_start=math.inf, dt=1.0, n_samples=5)

    def test_index_at_or_after(self):
        grid = TimeGrid(t_start=0.0, dt=0.5, n_samples=5)
        assert grid.index_at_or_after(0.0) == 0
        assert grid.index_at_or_after(0.6) == 2
        assert grid.index_at_or_after(1.0) == 2
        assert grid.index_at_or_after(2.0) == 4
        with pytest.raises(ParameterError):
            grid.index_at_or_after(5.0)
        with pytest.raises(ParameterError):
            grid.index_at_or_after(-1.0)

    def test_index_at_or_before(self):
        grid = TimeGrid(t_start=0.0, dt=0.5, n_samples=5)
        assert grid.index_at_or_before(-0.2) == 0
        assert grid.index_at_or_before(0.0) == 0
        assert grid.index_at_or_before(0.9) == 1
        assert grid.index_at_or_before(1.0 - 1e-12) == 2
        assert grid.index_at_or_before(2.0) == 4
        with pytest.raises(ParameterError):
            grid.index_at_or_before(5.0)
        with pytest.raises(ParameterError, match="not finite"):
            grid.index_at_or_before(math.nan)

    @pytest.mark.parametrize("t_start, dt", [(0.0, 1e-3), (1e6, 1e-3), (1.7e9, 0.1)])
    def test_grid_time_maps_to_its_own_sample(self, t_start, dt):
        # far from 0, (time_at(k) - t_start) / dt rounds to either side of k
        grid = TimeGrid(t_start=t_start, dt=dt, n_samples=100_000)
        after = [k for k in range(grid.n_samples)
                 if grid.index_at_or_after(grid.time_at(k)) != k]
        before = [k for k in range(grid.n_samples)
                  if grid.index_at_or_before(grid.time_at(k)) != k]
        assert (after, before) == ([], [])


class TestTrajectory:
    def test_rejects_nan_with_time(self):
        grid = TimeGrid(t_start=0.0, dt=0.5, n_samples=4)
        with pytest.raises(ParameterError, match="1.5"):
            Trajectory(grid, [0.0, 1.0, 2.0, float("nan")])

    def test_rejects_wrong_length(self):
        grid = TimeGrid(t_start=0.0, dt=0.5, n_samples=4)
        with pytest.raises(ParameterError):
            Trajectory(grid, [0.0, 1.0])

    def test_values_read_only(self):
        grid = TimeGrid(t_start=0.0, dt=0.5, n_samples=3)
        traj = Trajectory(grid, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            traj.values[0] = 9.0


def sample_function(f, grid):
    """A scalar function of time on every grid sample, as a Trajectory."""
    return Trajectory(grid, [float(f(t)) for t in grid.times()])


class TestSampleFunction:
    def test_zero_function(self):
        grid = TimeGrid(t_start=0.0, dt=1.0, n_samples=5)
        assert np.array_equal(sample_function(lambda t: 0.0, grid).values,
                              np.zeros(5))

    def test_identity_ramp(self):
        grid = TimeGrid(t_start=0.0, dt=0.5, n_samples=3)
        traj = sample_function(lambda t: t, grid)
        assert np.array_equal(traj.values, [0.0, 0.5, 1.0])

    def test_exponential_against_series(self):
        grid = TimeGrid(t_start=0.0, dt=1.0, n_samples=3)
        traj = sample_function(lambda t: math.exp(-t), grid)
        expected = [1.0, exp_by_series(-1.0), exp_by_series(-2.0)]
        assert traj.values == pytest.approx(expected, rel=1e-15)

    def test_non_finite_names_time(self):
        grid = TimeGrid(t_start=0.0, dt=0.5, n_samples=4)

        def f(t):
            return float("inf") if t == 1.5 else 0.0

        with pytest.raises(ParameterError, match="1.5"):
            sample_function(f, grid)

    def test_deterministic(self):
        grid = TimeGrid(t_start=0.2, dt=0.37, n_samples=50)
        a = sample_function(lambda t: math.sin(t) * math.exp(-t / 5), grid)
        b = sample_function(lambda t: math.sin(t) * math.exp(-t / 5), grid)
        assert np.array_equal(a.values, b.values)


class TestSteadyState:
    def test_constant_is_exact(self):
        grid = TimeGrid(t_start=0.0, dt=1.0, n_samples=5)
        traj = Trajectory(grid, [0.3] * 5)
        assert estimate_steady_state(traj, 0.25) == 0.3

    def test_zero(self):
        grid = TimeGrid(t_start=0.0, dt=1.0, n_samples=8)
        traj = Trajectory(grid, np.zeros(8))
        assert estimate_steady_state(traj, 0.5) == 0.0

    def test_tail_mean_by_hand(self):
        grid = TimeGrid(t_start=0.0, dt=1.0, n_samples=4)
        traj = Trajectory(grid, [1.0, 0.5, 0.2, 0.2])
        assert estimate_steady_state(traj, 0.5) == 0.2

    def test_bad_tail_fraction(self):
        grid = TimeGrid(t_start=0.0, dt=1.0, n_samples=4)
        traj = Trajectory(grid, np.zeros(4))
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ParameterError):
                estimate_steady_state(traj, bad)

    def test_window_too_small(self):
        grid = TimeGrid(t_start=0.0, dt=1.0, n_samples=2)
        traj = Trajectory(grid, [1.0, 1.0])
        with pytest.raises(ParameterError):
            estimate_steady_state(traj, 0.5)

