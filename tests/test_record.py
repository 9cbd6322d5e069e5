"""The record base that every value type of the package derives from.

It binds arguments as a frozen dataclass's generated `__init__` does,
refuses assignment and deletion, and gives eq, hash and repr by type and
fields. `fields` and `replace` stand in for the `dataclasses` functions,
which refuse a record.
"""

import copy
import dataclasses
import pickle

import pytest

from risktraj.config import IntegratorConfig, LoadPolicy
from risktraj.errors import ParameterError
from risktraj.io_formats import ReportDocument
from risktraj.metrics import ResilienceReport
from risktraj.record import Record, fields, replace
from risktraj.scenario import default_config


class Point(Record):
    x: float
    y: float = 0.0


class Labelled(Point, kw_only=True):
    label: str
    weight: float = 1.0


def test_arguments_bind_by_position_keyword_and_default():
    assert vars(Point(1.0)) == {"x": 1.0, "y": 0.0}
    assert vars(Point(y=2.0, x=1.0)) == {"x": 1.0, "y": 2.0}
    assert vars(Labelled(1.0, label="a")) == {"x": 1.0, "y": 0.0, "label": "a",
                                              "weight": 1.0}


@pytest.mark.parametrize("build", [
    lambda: Point(),                    # x missing
    lambda: Point(1.0, z=2.0),          # no field z
    lambda: Point(1.0, x=2.0),          # x twice
    lambda: Point(1.0, 2.0, 3.0),       # one positional too many
    lambda: Labelled(1.0),              # keyword-only label missing
    lambda: Labelled(1.0, 2.0, "a"),    # label given by position
], ids=["missing", "unknown", "doubled", "surplus", "kw_only_missing",
        "kw_only_positional"])
def test_bad_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_assignment_and_deletion_raise():
    point = Point(1.0)
    with pytest.raises(AttributeError, match="'x'"):
        point.x = 2.0
    with pytest.raises(AttributeError, match="'x'"):
        del point.x
    with pytest.raises(AttributeError, match="'z'"):
        point.z = 2.0
    assert vars(point) == {"x": 1.0, "y": 0.0}


def test_dict_fields_hold_a_read_only_copy():
    class Table(Record):
        rows: dict

    rows = {"a": 1}
    table = Table(rows)
    rows["b"] = 2
    assert dict(table.rows) == {"a": 1}
    with pytest.raises(TypeError):
        table.rows["b"] = 2


def test_eq_and_hash_follow_the_type_and_the_fields():
    assert Point(1.0) == Point(1.0, 0.0)
    assert hash(Point(1.0)) == hash(Point(1.0, 0.0)) == hash((1.0, 0.0))
    assert Point(1.0) != Point(2.0)
    assert Labelled(1.0, label="a") != Labelled(1.0, label="b")

    class Renamed(Point):
        pass

    assert Renamed(1.0) != Point(1.0) and Point(1.0) != Renamed(1.0)

    report = ResilienceReport(
        t0=0.0, r0=0.0, t_peak=0.0, lambda_hat=None, fit_quality=None,
        impact_numeric=0.0, impact_closed_form=None, steady_state=0.0,
        recovery_time=0.0, recovered=True, tail_corrected=False,
        absent=dict.fromkeys(("lambda_hat", "fit_quality", "impact_closed_form"), "-"))
    doc = ReportDocument.from_report(report, "external", "sha256:0011223344556677")
    assert doc != report and report != doc
    assert replace(report) == report


def test_repr_names_the_type_and_every_field():
    assert repr(default_config().integrator) == (
        "IntegratorConfig(dt=0.005, t_start=0.0, t_end=144.0)")
    assert repr(Labelled(1.0, label="a")) == (
        "Labelled(x=1.0, y=0.0, label='a', weight=1.0)")


def test_fields_list_inherited_fields_first():
    assert [f.name for f in fields(Labelled)] == ["x", "y", "label", "weight"]
    base = [f.name for f in fields(ResilienceReport)]
    assert [f.name for f in fields(ReportDocument)] == [
        *base, "case_id", "config_digest", "artifact_version"]
    assert [f.annotation for f in fields(IntegratorConfig)] == ["float"] * 3
    assert fields(default_config().integrator) == fields(IntegratorConfig)


def test_replace_runs_every_check_again():
    policy = LoadPolicy(2.75)
    assert replace(policy, gain=0.5) == LoadPolicy(2.75, gain=0.5)
    assert policy.gain == 0.0
    with pytest.raises(ParameterError, match=r"^P0 must be > 0, got -1.0$"):
        replace(policy, P0=-1.0)
    with pytest.raises(TypeError):
        replace(policy, bogus=1.0)


def test_pickle_and_deepcopy_rebuild_a_record():
    config = default_config()
    assert pickle.loads(pickle.dumps(config)) == config
    copied = copy.deepcopy(config)
    assert copied == config and copied.policies is not config.policies
    with pytest.raises(TypeError):
        copied.policies["bogus"] = config.policies["passive"]


def test_dataclasses_functions_refuse_a_record():
    # a record is no dataclass: these fail loudly instead of seeing no fields
    policy = LoadPolicy(2.75)
    with pytest.raises(TypeError):
        dataclasses.fields(policy)
    with pytest.raises(TypeError):
        dataclasses.replace(policy, gain=0.5)
