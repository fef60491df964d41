"""Geometric-algebra special functions in the four 3D Clifford algebras.

Closed-form exponentials of general multivectors, the exact trigonometric
and hyperbolic functions built on them, truncated-series cross-checks, and
a rotating-field spin-dynamics application.

``import cl3`` loads the closed-form modules only.  The names of ``remap``,
``series`` and ``spin`` resolve on first use (PEP 562), which loads their
module then.
"""

from importlib import import_module as _import_module

from .algebra import (
    BLADE_GRADES,
    BLADE_NAMES,
    InverseResult,
    InvolutionKind,
    Multivector,
    Signature,
    adjugate,
    blade,
    blades,
    det_norm,
    determinant,
    geometric_product,
    grade_select,
    inverse,
    involute,
    sign_table,
)
from .center import CenterElement, center_decompose, center_product, sqrt_center
from .exceptions import (
    Cl3Error,
    MixedGradeInputError,
    MVParseError,
    NoIsolatedRootError,
    NonFiniteError,
    NonInvertibleError,
    NormUndefinedError,
    SeriesOrderError,
    SignatureMismatchError,
)
from .exponential import ExpBranch, ExpFactors, degeneracy_eps, exp, exp_factors, exp_particular
from .functions import hyperbolic_exact, normalize, ratio_exact, trig_exact

__version__ = "0.1.0"

# Public name -> the submodule that defines it, for the names bound on first use.
_LAZY = {
    **dict.fromkeys((
        "EVEN_BLADE_NAMES", "REMAP_TABLES", "EvenMultivector", "RemapTable",
        "basis_remap", "even_geometric_product", "get_remap_table",
    ), "remap"),
    **dict.fromkeys((
        "MAX_TABLE_ORDER", "SeriesFamily", "SeriesSpec",
        "bernoulli_numbers", "euler_numbers", "series_eval",
    ), "series"),
    **dict.fromkeys((
        "FieldConfig", "ProbabilityTrace", "RampSweep", "down_probability",
        "down_probability_projected", "evolve_spinor", "field_at",
        "sweep_ramp", "write_trace_csv",
    ), "spin"),
}

# The eagerly bound names (the submodules among them), the lazy names and
# their submodules.
__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | set(_LAZY) | set(_LAZY.values())
)


def __getattr__(name: str):
    if name in _LAZY.values():
        return _import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
