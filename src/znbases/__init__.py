"""znbases: orders of additive bases of finite cyclic groups.

A library and CLI for exact computation of h-fold sumsets and basis orders
over Z_n, achieved-order spectra with gap detection, affine symmetry
reduction, small-doubling structure analysis, and desk-scale verification of
the classical growth and cardinality bounds that govern them.
"""

from .affine import canonical_form, is_canonical
from .bounds import (
    FamilyRecord,
    FlGrowthReport,
    KlBoundBreakdown,
    PigeonholeWitness,
    RepDecomposition,
    SandwichBounds,
    WitnessOrderBound,
    fl_growth_check,
    kl_bound,
    lower_bound_family,
    pigeonhole_witness,
    rep_decompose,
    sandwich_bounds,
    witness_order_bound,
)
from .core import ZnSet, divisors, is_basis, nlr
from .spectrum import (
    ConjectureReport,
    SpectrumReport,
    enumerate_bases,
    spectrum,
    verify_conjecture,
)
from .structure import (
    DfAnalysis,
    PipelineTrace,
    StructureReport,
    ap_cover,
    coset_profile,
    df_analyze,
    pipeline_trace,
    project,
)
from .sumsets import SumsetTrajectory, add_sets, h_fold, order, trajectory

__version__ = "0.1.0"

__all__ = [
    "ConjectureReport",
    "DfAnalysis",
    "FamilyRecord",
    "FlGrowthReport",
    "KlBoundBreakdown",
    "PigeonholeWitness",
    "PipelineTrace",
    "RepDecomposition",
    "SandwichBounds",
    "SpectrumReport",
    "StructureReport",
    "SumsetTrajectory",
    "WitnessOrderBound",
    "ZnSet",
    "add_sets",
    "ap_cover",
    "canonical_form",
    "coset_profile",
    "df_analyze",
    "divisors",
    "enumerate_bases",
    "fl_growth_check",
    "h_fold",
    "is_basis",
    "is_canonical",
    "kl_bound",
    "lower_bound_family",
    "nlr",
    "order",
    "pigeonhole_witness",
    "pipeline_trace",
    "project",
    "rep_decompose",
    "sandwich_bounds",
    "spectrum",
    "trajectory",
    "verify_conjecture",
    "witness_order_bound",
]
