"""Geometric-algebra special functions in the four 3D Clifford algebras.

Closed-form exponentials of general multivectors, the exact trigonometric
and hyperbolic functions built on them, truncated-series cross-checks, and
a rotating-field spin-dynamics application.
"""

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
    ToleranceError,
    UnsupportedSignatureError,
)
from .exponential import ExpBranch, ExpFactors, degeneracy_eps, exp, exp_factors, exp_particular
from .functions import hyperbolic_exact, normalize, ratio_exact, trig_exact
from .remap import (
    EVEN_BLADE_NAMES,
    REMAP_TABLES,
    EvenMultivector,
    RemapTable,
    basis_remap,
    even_geometric_product,
    get_remap_table,
)
from .series import (
    MAX_TABLE_ORDER,
    SeriesFamily,
    SeriesSpec,
    bernoulli_numbers,
    euler_numbers,
    series_eval,
)
from .spin import (
    FieldConfig,
    ProbabilityTrace,
    RampSweep,
    down_probability,
    down_probability_projected,
    evolve_spinor,
    field_at,
    sweep_ramp,
    write_trace_csv,
)

__version__ = "0.1.0"
