"""Byte-identity guard for `risktraj sweep`.

The digests were recorded at integrator.dt_s=0.02 (4x the shipped step,
same code paths), with the sweep reusing the cases a policy key leaves
unchanged. A change to which cases a sweep reruns, or to the integrator
or the scenario, that alters a single bit of the CSV fails here;
regenerate the digests only for a change that is meant to move the
numbers, and say so in CHANGES.md.
"""

import hashlib

import pytest

import risktraj.scenario
from risktraj.cli import main

COARSE = "integrator.dt_s=0.02"

# (param, range) -> (sha256 of the CSV, run_case calls)
SWEEPS = {
    # the README's sweep: passive and reactive run once, anticipatory 9 times
    ("policy.anticipatory.gain_W_per_J", "0:2:9"): (
        "8cc4bf18ed1e9a854e2e470b290c988aaace7bc2e2da49d3f85848d06d74f9dd", 2 + 9),
    ("disturbance.magnitude", "0:0.5:3"): (
        "d65a620ce66e87c556a3cf0bbe4987f5cc37701b86d8dc7a9d965851ae55ebc4", 3 * 3),
}


@pytest.mark.parametrize("param, spec", SWEEPS)
def test_sweep_csv_byte_identical(tmp_path, monkeypatch, capsys, param, spec):
    calls = []
    run_case = risktraj.scenario.run_case

    def counted(case_id, config):
        calls.append(case_id)
        return run_case(case_id, config)

    monkeypatch.setattr(risktraj.scenario, "run_case", counted)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--param", param, "--range", spec, "--out", str(out),
                 "--set", COARSE]) == 0
    capsys.readouterr()
    digest, runs = SWEEPS[param, spec]
    assert (hashlib.sha256(out.read_bytes()).hexdigest(), len(calls)) == (digest, runs)
