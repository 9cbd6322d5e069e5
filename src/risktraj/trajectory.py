"""Uniformly sampled scalar time series and their steady-state level.

Everything downstream (integration records, metric extraction, file I/O)
works on these values. Trajectories are immutable after construction so
they can be shared freely between concurrent scenario runs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .record import Record


class TimeGrid(Record):
    """Uniform sampling grid: sample k lies at t_start + k*dt.

    Times are always produced in multiply form, never by accumulated
    addition, so long grids do not drift.
    """

    t_start: float
    dt: float
    n_samples: int

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ParameterError(f"dt must be positive and finite, got {self.dt}")
        if self.n_samples < 2:
            raise ParameterError(f"need at least 2 samples, got {self.n_samples}")
        if not math.isfinite(self.t_start):
            raise ParameterError(f"t_start must be finite, got {self.t_start}")

    @property
    def t_end(self) -> float:
        return self.time_at(self.n_samples - 1)

    def time_at(self, k: int) -> float:
        return self.t_start + k * self.dt

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_samples)

    def index_at_or_after(self, t: float) -> int:
        """Smallest sample index k with time_at(k) >= t, clamped to the grid.

        A t up to 1e-9 steps past time_at(k) still maps to k; time_at(k)
        itself always maps to k. Raises ParameterError when t is not finite
        or lies more than half a step outside the grid span.
        """
        self._check_in_span(t)
        k = math.ceil((t - self.t_start) / self.dt - 1e-9)
        if self.time_at(k - 1) >= t:  # the quotient rounded up past a grid time
            k -= 1
        return min(max(k, 0), self.n_samples - 1)

    def index_at_or_before(self, t: float) -> int:
        """Largest sample index k with time_at(k) <= t, clamped to the grid.

        The mirror of index_at_or_after: a t up to 1e-9 steps short of
        time_at(k) still maps to k, and time_at(k) itself always maps to k.
        """
        self._check_in_span(t)
        k = math.floor((t - self.t_start) / self.dt + 1e-9)
        if self.time_at(k + 1) <= t:  # the quotient rounded down past a grid time
            k += 1
        return min(max(k, 0), self.n_samples - 1)

    def _check_in_span(self, t: float) -> None:
        if not math.isfinite(t):
            raise ParameterError(f"time {t} is not finite")
        if t < self.t_start - 0.5 * self.dt or t > self.t_end + 0.5 * self.dt:
            raise ParameterError(
                f"time {t} outside trajectory range [{self.t_start}, {self.t_end}]"
            )


class Trajectory(Record):
    """A recorded scalar signal on a TimeGrid. Values are finite and read-only."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) != self.grid.n_samples:
            raise ParameterError(
                f"expected {self.grid.n_samples} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ParameterError(
                f"non-finite value at t={self.grid.time_at(bad)} (sample {bad})"
            )
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.grid.n_samples

    def times(self) -> np.ndarray:
        return self.grid.times()


def tail_length(tail_fraction: float, n: int) -> int:
    """ceil(tail_fraction * n): the samples a tail window of n keeps, at least 2."""
    if not 0.0 < tail_fraction <= 1.0:
        raise ParameterError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    n_tail = math.ceil(tail_fraction * n)
    if n_tail < 2:
        raise ParameterError(
            f"tail window has {n_tail} sample(s); need at least 2 "
            f"(tail_fraction={tail_fraction}, n={n})"
        )
    return n_tail


def estimate_steady_state(traj: Trajectory, tail_fraction: float) -> float:
    """Mean of the last tail_length(tail_fraction, n) samples.

    A constant window returns that constant exactly.
    """
    window = traj.values[-tail_length(tail_fraction, traj.grid.n_samples):]
    if np.all(window == window[0]):
        return float(window[0])  # exact for constant signals, no rounding
    return float(np.mean(window))
