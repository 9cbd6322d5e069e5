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
        "a95d1c066bac379dd1cb304cf028615c44e16e9d42fb764f9e2e9f5c64ccd432", 2 + 9),
    ("disturbance.magnitude", "0:0.5:3"): (
        "287a84d3d45356ebb83fd736fedf01ea7c10efd454ec456f994e33c08563f8f5", 3 * 3),
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
