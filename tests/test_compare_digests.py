"""Byte-identity guard for `risktraj compare` on the shipped defaults.

The digests were recorded with the ndarray-state RK4 core that preceded
the float-state one, at integrator.dt_s=0.02 (4x the shipped step, same
code paths). A change to the integrator or the scenario that alters a
single bit of any output fails here; regenerate the digests only for a
change that is meant to move the numbers, and say so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from risktraj.cli import main
from risktraj.io_formats import apply_overrides, config_to_parser, parser_to_config
from risktraj.scenario import CASE_IDS, compare_cases, default_config, run_case

COARSE = "integrator.dt_s=0.02"

OUTPUT_SHA256 = {
    "anticipatory_report.txt":
        "58ef74bb107a500ad761ce7a724321a806bcc887eec1ab15034921efc1c2351b",
    "anticipatory_trajectory.csv":
        "3b2e46508097747c6f33a4c3ecda93936d45bad6eaa866faf760e0adc9989378",
    "comparison.svg":
        "05301ff018c09465f485acdc2304c6798cbc8e4f6e996b1af651a6e7f8192297",
    "comparison.txt":
        "1f12022d4d3f8bb8c4c81507e09294b4ed2724a080717163fcebf36957f4ddf9",
    "passive_report.txt":
        "63b01a52c16fb6245fd924cfd7805bd3088892d5f3ad2ab13d412c9c553b3132",
    "passive_trajectory.csv":
        "275a292f5872deec2b3d9285a13730e195085e3c0a484e19d4ba7e1027a69d63",
    "reactive_report.txt":
        "dc148cff73813ff2a9dd8ce21999a71ff6c14124f6f3491f1d6a2b760669adf5",
    "reactive_trajectory.csv":
        "cea76b082b5dc444e08799e6219c267639fc6ba96ddebae4b4a0523c8d45496d",
}

# sha256 of the little-endian float64 energy samples of each case
ENERGY_SHA256 = {
    "passive": "1017bc613be2c2fe58d04141a745684eb14d62c5f2d5c0c6a4be8dfeab14f2a6",
    "reactive": "826f91fbaf64ca6e02ec14bda2da0b0d1858df47dc6942d289b175f1675a59a7",
    "anticipatory":
        "2c4e444a8d97cca7f6d39aae90f4322cbc9d4bb6be42bbcd68dbbb2c6d42d1b7",
}

# The shed-mode tuple of each case: 7,201 flags, False at the start, and
# flipping after each listed sample index.
SHED_SWITCHES = {
    "passive": [],
    "reactive": [2007, 2469],
    "anticipatory": [1761, 2173, 2357, 2442],
}


def _shed_tuple(switches, n=7201):
    shed, flags, flips = False, [], set(switches)
    for k in range(n):
        flags.append(shed)
        if k in flips:
            shed = not shed
    return tuple(flags)


def test_compare_outputs_byte_identical(tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", "default", "--out", str(out),
                 "--set", COARSE]) == 0
    capsys.readouterr()
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.iterdir()
    }
    assert digests == OUTPUT_SHA256


@pytest.fixture(scope="module")
def coarse_comparison():
    parser = apply_overrides(config_to_parser(default_config()), [COARSE])
    return compare_cases(parser_to_config(parser))


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_energy_samples_pinned(coarse_comparison, case_id):
    values = coarse_comparison.cases[case_id].energy.values
    digest = hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()
    assert digest == ENERGY_SHA256[case_id]


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_shed_modes_pinned(coarse_comparison, case_id):
    shed = coarse_comparison.cases[case_id].shed
    assert shed == _shed_tuple(SHED_SWITCHES[case_id])
    assert all(isinstance(flag, (bool, np.bool_)) for flag in shed)


# Runs that sit on the storage bounds, so the clamp and the zeroed net
# inflow are exercised: sha256 of the little-endian E, P_load and r samples
# followed by one byte per shed flag, recorded like the digests above.
CLAMPED_RUNS = {
    "full": (
        ["solar.P_peak_W=40"],  # 436 samples at E_max
        "04551a383e38399ed4371811567d68fe4ac3d6ae25b46539ac41a409acb41ab4",
    ),
    "empty": (
        ["policy.passive.P0_W=6"],  # 1,123 samples at 0
        "20cf9bf829b2d2c13bb4b24c8289ace0b74bd358acdfa30178c20a880a6337ce",
    ),
}


@pytest.mark.parametrize("name", sorted(CLAMPED_RUNS))
def test_clamped_runs_pinned(name):
    overrides, expected = CLAMPED_RUNS[name]
    parser = apply_overrides(
        config_to_parser(default_config()),
        [COARSE, "integrator.t_end_s=48", *overrides],
    )
    result = run_case("passive", parser_to_config(parser))
    blob = b"".join(
        values.astype("<f8").tobytes()
        for values in (result.energy.values, result.p_load.values, result.risk.values)
    )
    blob += bytes(np.asarray(result.shed, dtype=bool))
    assert hashlib.sha256(blob).hexdigest() == expected
