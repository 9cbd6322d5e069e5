"""Run the risktraj CLI as a user would, one operation at a time.

The benchmark lives beside the program in a source checkout: `ROOT/src`
holds the `risktraj` package and nothing is installed. Child processes
get `PYTHONPATH=ROOT/src`; the in-process traced run puts the same
directory first on `sys.path`.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "risktraj"
DEFAULT_INI = PACKAGE / "data" / "default_scenario.ini"

# A single operation is killed after this long so that a hung program still
# lets the benchmark end within its own time limit.
OP_TIMEOUT_S = 150.0


# The reference machine shares its cores with other tenants, and its speed
# drifts by up to 1.8x, over seconds and over tens of minutes, for all code
# alike: a process's CPU time grows with its wall time in the slow spells.
# Raw wall times of unchanged code then spread 0.2 to 0.33 between runs,
# past the largest bound a benchmark metric may have. So the timed runs
# bracket every operation with a fixed pure-Python probe and scale its wall
# time to a host that runs the probe in REFERENCE_PROBE_S (see README.md).
PROBE_LOOPS = 4
PROBE_ITERATIONS = 200_000
REFERENCE_PROBE_S = 0.048  # the reference machine in its fast spells


def probe_s() -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    for _ in range(PROBE_LOOPS):
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i
    return time.perf_counter() - start


class HostSpeed:
    """Scales operation wall times to the reference host speed.

    Each operation lies between two probes, the one before it being the one
    after the previous operation; its wall time is multiplied by
    REFERENCE_PROBE_S over the mean of the two.
    """

    def __init__(self):
        probe_s()  # warm-up
        self.last = probe_s()
        self.factors: list[float] = []

    def scale(self, wall_s: float) -> float:
        now = probe_s()
        factor = REFERENCE_PROBE_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return wall_s * factor


class MissingProgram(RuntimeError):
    """The checkout holds no risktraj sources to benchmark."""


def require_program() -> None:
    for path in (PACKAGE / "cli.py", DEFAULT_INI):
        if not path.is_file():
            raise MissingProgram(f"no risktraj source at {path}")


@dataclass
class OpResult:
    """Outcome of one CLI operation."""

    code: int
    wall_s: float
    peak_rss_mb: float | None  # None for in-process runs
    stdout: str
    stderr: str


def run_cli(args: list[str], scratch: Path, timeout_s: float = OP_TIMEOUT_S) -> OpResult:
    """Run `python -m risktraj <args>` in a fresh interpreter and wait for it.

    Wall time covers process start to exit. Peak RSS is the child's own
    `ru_maxrss`, read with `wait4` so other children do not mix in.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = scratch / "op.stdout", scratch / "op.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "risktraj", *args],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=ROOT,
        )
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return OpResult(
        code=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def import_program():
    """Import `risktraj.cli` from the checkout, never from elsewhere."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import risktraj.cli

    origin = Path(risktraj.cli.__file__).resolve()
    if PACKAGE.resolve() not in origin.parents:
        raise MissingProgram(f"risktraj imported from {origin}, not {PACKAGE}")
    return risktraj.cli


def run_in_process(main, args: list[str]) -> OpResult:
    """Call `main(args)` in this interpreter, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(args)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed operation, not a crash
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
    return OpResult(code, wall, None, out.getvalue(), err.getvalue())


def parse_key_values(text: str) -> dict[str, str]:
    """`key = value` lines, as in report and comparison documents."""
    entries = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            entries[key.strip()] = value.strip()
    return entries
