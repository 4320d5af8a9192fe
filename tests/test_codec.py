"""Every report type written through the one JSON encoder (core.record).

Reports are written, never read back.  Each case builds a report; its
to_dict must be plain JSON, unchanged by a trip through JSON text, and a
CLI command's --format json payload must be the library report's to_dict.
Reports are named tuples, whose == ignores the class, so the record types
are checked too, nested records included.
"""

import copy
import importlib
import json
import pickle
import pkgutil

import pytest
from click.testing import CliRunner

import znbases
from znbases import (
    df_analyze,
    fl_growth_check,
    kl_bound,
    lower_bound_family,
    pigeonhole_witness,
    pipeline_trace,
    rep_decompose,
    sandwich_bounds,
    spectrum,
    trajectory,
    verify_conjecture,
    witness_order_bound,
)
from znbases.bounds import (
    FamilyRecord,
    FlGrowthRecord,
    FlGrowthReport,
    KlBoundBreakdown,
    KlTerm,
    PigeonholeWitness,
    RepDecomposition,
    SandwichBounds,
    WitnessOrderBound,
)
from znbases.cli import main
from znbases.core import ZnSet
from znbases.spectrum import ConjectureReport, Exceeder, OrderWitness, SpectrumReport
from znbases.structure import DfAnalysis, PipelineTrace, StructureReport
from znbases.sumsets import SumsetTrajectory

SMALL_DOUBLING = ZnSet.from_text(20, "0,4,8,12,16,1")


CASES = [
    (SpectrumReport, lambda: spectrum(9), "spectrum-9"),
    (ConjectureReport, lambda: verify_conjecture(20, 3, max_card=5), "conjecture-20-capped"),
    (KlBoundBreakdown, lambda: kl_bound(12, 5), "kl-bound"),
    (FlGrowthReport, lambda: fl_growth_check((0, 1, 3), 5), "fl-growth"),
    (SandwichBounds, lambda: sandwich_bounds(20, 2, 19), "sandwich"),
    (PigeonholeWitness, lambda: pigeonhole_witness(100, 4, 34), "pigeonhole"),
    (WitnessOrderBound, lambda: witness_order_bound(pigeonhole_witness(100, 4, 34)),
     "witness-bound"),
    (WitnessOrderBound, lambda: witness_order_bound(pigeonhole_witness(10, 3, 5)),
     "witness-bound-inf"),
    (RepDecomposition, lambda: rep_decompose(100, 4, 34, 3), "rep-decomposition"),
    (FamilyRecord, lambda: lower_bound_family(5, (29, 29))[0], "family"),
    (StructureReport, lambda: df_analyze(SMALL_DOUBLING).reports[1], "structure"),
    (DfAnalysis, lambda: df_analyze(SMALL_DOUBLING), "df-analysis"),
    (PipelineTrace, lambda: pipeline_trace(SMALL_DOUBLING, 3), "pipeline-20"),
    (PipelineTrace, lambda: pipeline_trace(ZnSet.from_text(10, "0,1"), 2), "pipeline-10"),
    (PipelineTrace, lambda: pipeline_trace(ZnSet.from_text(6, "0,2"), 2), "pipeline-6"),
    (PipelineTrace, lambda: pipeline_trace(ZnSet.from_text(1, "0"), 2), "pipeline-unavailable"),
    (SumsetTrajectory, lambda: trajectory(ZnSet.from_text(9, "0,1,3")), "trajectory"),
    (SumsetTrajectory, lambda: trajectory(ZnSet.from_text(6, "0,2")), "trajectory-stabilized"),
]

# Field -> class of the records a report nests there, alone or in a tuple.
NESTED = {
    SpectrumReport: {"witnesses": OrderWitness},
    ConjectureReport: {"exceeders": Exceeder},
    KlBoundBreakdown: {"terms": KlTerm},
    FlGrowthReport: {"records": FlGrowthRecord},
    WitnessOrderBound: {"witness": PigeonholeWitness},
    DfAnalysis: {"reports": StructureReport, "best": StructureReport},
}


def assert_types(report, cls):
    assert type(report) is cls
    for name, inner in NESTED.get(cls, {}).items():
        value = getattr(report, name)
        items = [value] if value is None or hasattr(value, "_fields") else value
        assert all(type(x) is inner for x in items if x is not None), name


def test_cases_cover_every_report_type():
    assert len({cls for cls, _, _ in CASES}) == 13


@pytest.mark.parametrize("cls, make", [pytest.param(c, m, id=i) for c, m, i in CASES])
def test_report_round_trip(cls, make):
    report = make()
    assert_types(report, cls)
    d = report.to_dict()
    assert json.loads(json.dumps(d)) == d


@pytest.mark.parametrize("args, make", [
    pytest.param(("spectrum", "--n", "9"), lambda: spectrum(9), id="spectrum"),
    pytest.param(("conjecture", "--k", "2", "--n", "12"),
                 lambda: verify_conjecture(12, 2), id="conjecture"),
    pytest.param(("df-analyze", "--n", "20", "--set", "0,4,8,12,16,1"),
                 lambda: df_analyze(SMALL_DOUBLING), id="df-analyze"),
    pytest.param(("pipeline", "--n", "20", "--set", "0,4,8,12,16,1", "--k", "3"),
                 lambda: pipeline_trace(SMALL_DOUBLING, 3), id="pipeline"),
    pytest.param(("sandwich", "--n", "20", "--a", "2", "--b", "19"),
                 lambda: sandwich_bounds(20, 2, 19), id="sandwich"),
])
def test_cli_json_payload_is_the_library_report(args, make):
    res = CliRunner().invoke(main, [*args, "--format", "json"])
    assert json.loads(res.stdout) == make().to_dict()


def test_reports_are_named_tuples_and_values_are_slotted():
    """Every report type in the package is a tuple subclass carrying the
    encoder; the one value type, ZnSet, is slotted and immutable, compares
    and hashes by its fields, and keeps its repr."""
    modules = [importlib.import_module(f"znbases.{m.name}")
               for m in pkgutil.iter_modules(znbases.__path__)]
    reports = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, tuple)
               and obj.__module__ == module.__name__}
    assert len(reports) == 17
    assert reports >= {cls for cls, _, _ in CASES} | {
        inner for nested in NESTED.values() for inner in nested.values()}
    for cls in reports:
        assert hasattr(cls, "_fields"), cls
        assert callable(cls.to_dict), cls
    value = ZnSet(5, 3)
    assert repr(value) == "ZnSet(5, {0,1})"
    assert value.__slots__ == ("modulus", "mask") and not hasattr(value, "__dict__")
    for name in value.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    twin = ZnSet(5, 3)
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert value != (5, 3) and value.__eq__((5, 3)) is NotImplemented
    assert ZnSet(5, 3) != ZnSet(6, 3) and ZnSet(5, 3) != ZnSet(5, 1)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: ZnSet(64, 12345), id="ZnSet"),
    pytest.param(lambda: kl_bound(12, 5), id="bounds"),
    pytest.param(lambda: verify_conjecture(20, 3, max_card=5), id="spectrum"),
    pytest.param(lambda: df_analyze(SMALL_DOUBLING), id="structure"),
    pytest.param(lambda: pipeline_trace(SMALL_DOUBLING, 3), id="structure-defaults"),
    pytest.param(lambda: trajectory(ZnSet.from_text(9, "0,1,3")), id="sumsets"),
])
def test_values_and_reports_survive_pickle_and_copy(make):
    value = make()
    for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value)

