import os

import numpy as np
import pytest

from risktraj.scenario import compare_cases, default_config
from risktraj.trajectory import TimeGrid, Trajectory


def make_exponential(r0=2.0, lam=0.5, baseline=0.0, dt=0.01, t_start=0.0, n=2001):
    """Analytic r(t) = baseline + r0*exp(-lam*(t - t_start)) on a uniform grid."""
    grid = TimeGrid(t_start=t_start, dt=dt, n_samples=n)
    t = grid.times() - t_start
    return Trajectory(grid, baseline + r0 * np.exp(-lam * t))


@pytest.fixture(autouse=True)
def no_child_left_unreaped():
    """Fail a test that leaves a child process behind, exited or running."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no children
    pytest.fail(f"test left child process {pid or '(still running)'} unreaped")


@pytest.fixture(scope="session")
def default_comparison():
    """One shared three-case run of the shipped defaults."""
    return compare_cases(default_config())
