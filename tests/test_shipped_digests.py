"""Byte-identity guard for the trajectory CSVs of `risktraj compare` at the
shipped step (integrator.dt_s = 0.005, 28,801 rows per case).

`test_compare_digests.py` runs at dt 0.02, with 7,201 rows per table; this
guard covers the full-length tables that `compare` ships. One process writes
each table whatever the usable CPU count, here fixed at two, and `compare`
reads no CSV, so it forks nothing.
"""

import hashlib
import os

from risktraj.cli import main

TRAJECTORY_SHA256 = {
    "passive_trajectory.csv":
        "066cd3bb95581c981b169823447d97a4fcbeddaa1f2b5346d118eabfcd33fc46",
    "reactive_trajectory.csv":
        "6da842abc0fabb2226b66b9eb8b40cc638fda98ec8cd9dfbe5f50dea63bbc035",
    "anticipatory_trajectory.csv":
        "b816430ea2a5f80a3746fb8c982db8ccd9511514f82c7a8a9f9e6fd095960f90",
}


def test_shipped_step_trajectories_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    out = tmp_path / "cmp"
    assert main(["compare", "--config", "default", "--out", str(out)]) == 0
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in TRAJECTORY_SHA256
    }
    assert digests == TRAJECTORY_SHA256
    assert forks == []
