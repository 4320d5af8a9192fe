"""znbases: orders of additive bases of finite cyclic groups.

A library and CLI for exact computation of h-fold sumsets and basis orders
over Z_n, achieved-order spectra with gap detection, affine symmetry
reduction, small-doubling structure analysis, and desk-scale verification of
the classical growth and cardinality bounds that govern them.

The six library modules are registered lazily: each is in sys.modules from
the start, but its body runs only when one of its attributes is first read,
so a command runs only the modules it uses.  The exports below resolve
through the module __getattr__ the same way.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# export -> its home module
_EXPORTS = {name: home for home, names in (
    ("affine", "canonical_form is_canonical"),
    ("bounds", "FamilyRecord FlGrowthReport KlBoundBreakdown PigeonholeWitness "
               "RepDecomposition SandwichBounds WitnessOrderBound fl_growth_check "
               "kl_bound lower_bound_family pigeonhole_witness rep_decompose "
               "sandwich_bounds witness_order_bound"),
    ("core", "ZnSet divisors is_basis nlr"),
    ("spectrum", "ConjectureReport SpectrumReport enumerate_bases spectrum "
                 "verify_conjecture"),
    ("structure", "DfAnalysis PipelineTrace StructureReport ap_cover coset_profile "
                  "df_analyze pipeline_trace project"),
    ("sumsets", "SumsetTrajectory add_sets h_fold order trajectory"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)


def _register_lazily(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# znbases.spectrum is the function, as it was when this package imported its
# modules eagerly; sys.modules["znbases.spectrum"] is the module
for _name in ("core", "sumsets", "affine", "bounds", "structure"):
    globals()[_name] = _register_lazily(_name)
_register_lazily("spectrum")
del _name


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[f"{__name__}.{_EXPORTS[name]}"], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
