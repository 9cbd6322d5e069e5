import os
import signal

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


class TimeLimitExceeded(BaseException):
    """Not an Exception, so that neither the code under test nor hypothesis
    takes it for an error of its own and goes on."""


@pytest.fixture
def time_limit():
    """Fail a test that runs past 30 s, such as one caught in a loop that
    never ends, rather than let it block the suite."""
    def expire(signum, frame):
        raise TimeLimitExceeded("the test did not finish within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def default_comparison():
    """One shared three-case run of the shipped defaults."""
    return compare_cases(default_config())
