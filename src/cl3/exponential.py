"""Closed-form exponential of a general multivector in all four 3D algebras.

Each algebra has its own expansion; there is no generic fallback.  The
CL30/CL12 pair shares one formula body with a signature sign ``u`` (+1 for
CL30, -1 for CL12).  Degenerate factor values are detected with a
scale-aware tolerance whose multiplier can be overridden through the
``GA_EPS`` environment variable (default 1e-12); the sinc-type ratios
switch to short Maclaurin polynomials near zero, at fixed points.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from functools import lru_cache

from .algebra import _PRODUCTS, BLADE_GRADES, Multivector, Signature
from .center import center_decompose
from .exceptions import MixedGradeInputError, NonFiniteError, ToleranceError

__all__ = [
    "ExpBranch",
    "ExpFactors",
    "degeneracy_eps",
    "exp_factors",
    "exp",
    "exp_particular",
]


@lru_cache(maxsize=8)
def _eps_multiplier(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise ToleranceError(f"GA_EPS must be a finite, non-negative number, got {raw!r}")
    return value


def degeneracy_eps(x: Multivector) -> float:
    """Threshold below which a branch factor counts as zero.

    Scales with the squared size of the vector+bivector part so that branch
    selection is invariant under overall rescaling of small inputs.  The
    multiplier is read from ``GA_EPS`` on every call (default 1e-12).
    """
    _, a1, a2, a3, a12, a13, a23, _ = x.t
    ss = a1 * a1 + a2 * a2 + a3 * a3 + a12 * a12 + a13 * a13 + a23 * a23
    return _eps_multiplier(os.environ.get("GA_EPS", "1e-12")) * (ss + 1.0)


class ExpBranch(enum.Enum):
    GENERIC = "generic"
    PLUS_DEGENERATE = "plus-degenerate"
    MINUS_DEGENERATE = "minus-degenerate"
    BOTH_DEGENERATE = "both-degenerate"


@dataclass(frozen=True)
class ExpFactors:
    """Per-algebra scalar factors feeding the closed-form exponential.

    CL03 carries non-negative ``a_plus``/``a_minus``; CL30/CL12 carry a
    non-negative ``a_plus``, a signed ``a_minus`` and ``c_norm`` =
    a_plus^2 + a_minus^2; CL21 carries only the signed squares (the mixed
    trig/hyperbolic ratios are evaluated from the squares directly, never
    from a square root that might not exist).
    """

    sig: Signature
    branch: ExpBranch
    a_plus_sq: float
    a_minus_sq: float
    a_plus: float | None = None
    a_minus: float | None = None
    c_norm: float | None = None


def _branch(plus_zero: bool, minus_zero: bool) -> ExpBranch:
    if plus_zero and minus_zero:
        return ExpBranch.BOTH_DEGENERATE
    if plus_zero:
        return ExpBranch.PLUS_DEGENERATE
    if minus_zero:
        return ExpBranch.MINUS_DEGENERATE
    return ExpBranch.GENERIC


def exp_factors(x: Multivector) -> ExpFactors:
    """Branch factors of the closed-form exponential of ``x``."""
    sig = x.sig
    eps = degeneracy_eps(x)
    _, a1, a2, a3, a12, a13, a23, _ = x.t

    if sig is Signature.CL03:
        aps = (a3 - a12) ** 2 + (a2 + a13) ** 2 + (a1 - a23) ** 2
        ams = (a3 + a12) ** 2 + (a2 - a13) ** 2 + (a1 + a23) ** 2
        branch = _branch(aps <= eps, ams <= eps)
        return ExpFactors(sig, branch, aps, ams, math.sqrt(aps), math.sqrt(ams))

    if sig is Signature.CL21:
        aps = -((a3 - a12) ** 2) + (a2 - a13) ** 2 + (a1 + a23) ** 2
        ams = -((a3 + a12) ** 2) + (a2 + a13) ** 2 + (a1 - a23) ** 2
        return ExpFactors(sig, _branch(abs(aps) <= eps, abs(ams) <= eps), aps, ams)

    # CL30 / CL12
    ce = center_decompose(x)
    a_s, a_i = ce.a_s, ce.a_i
    if abs(a_i) <= eps:
        if a_s > eps:
            ap, am = math.sqrt(a_s), 0.0
        elif a_s < -eps:
            ap, am = 0.0, math.sqrt(-a_s)
        else:
            ap, am = 0.0, 0.0
    else:
        radius = math.hypot(a_s, a_i)
        # a_s + radius cancels for a_s < 0; use the conjugate form there.
        base = a_s + radius if a_s >= 0.0 else (a_i * a_i) / (radius - a_s)
        ap = math.sqrt(0.5 * base)
        am = a_i / math.sqrt(2.0 * base)
    c_norm = ap * ap + am * am
    branch = _branch(ap <= eps, abs(am) <= eps)
    return ExpFactors(sig, branch, ap * ap, am * am, ap, am, c_norm)


# Each Maclaurin polynomial below is used where its first dropped term
# (t^8/9!, s^4/9!, s^4/8!) is under one ulp of the leading 1: fixed switch
# points, independent of the input's scale and of GA_EPS.
def _sinc(t: float) -> float:
    """sin(t)/t, with a 4-term Maclaurin polynomial near zero."""
    if abs(t) <= 0.05:
        s = t * t
        return 1.0 - s / 6.0 + s * s / 120.0 - s * s * s / 5040.0
    return math.sin(t) / t


def _si(s: float) -> float:
    """sinh(sqrt(s))/sqrt(s) continued through s <= 0 (signed square argument)."""
    if abs(s) <= 2.5e-3:
        return 1.0 + s / 6.0 + s * s / 120.0 + s * s * s / 5040.0
    if s > 0.0:
        r = math.sqrt(s)
        return math.sinh(r) / r
    r = math.sqrt(-s)
    return math.sin(r) / r


def _co(s: float) -> float:
    """cosh(sqrt(s)) continued through s <= 0 (signed square argument)."""
    if abs(s) <= 1.4e-3:
        return 1.0 + s / 2.0 + s * s / 24.0 + s * s * s / 720.0
    if s > 0.0:
        return math.cosh(math.sqrt(s))
    return math.cos(math.sqrt(-s))


def _exp_cl03(x: Multivector) -> Multivector:
    a0, a1, a2, a3, a12, a13, a23, a123 = x.t
    dp1, dp2, dp3 = a1 - a23, a2 + a13, a3 - a12
    dm1, dm2, dm3 = a1 + a23, a2 - a13, a3 + a12
    ap = math.sqrt(dp1 * dp1 + dp2 * dp2 + dp3 * dp3)
    am = math.sqrt(dm1 * dm1 + dm2 * dm2 + dm3 * dm3)
    ep, em = math.exp(a123), math.exp(-a123)
    cp, cm = math.cos(ap), math.cos(am)
    sp, sm = _sinc(ap), _sinc(am)
    half = 0.5 * math.exp(a0)
    return Multivector(x.sig, (
        half * (ep * cp + em * cm),
        half * (ep * dp1 * sp + em * dm1 * sm),
        half * (ep * dp2 * sp + em * dm2 * sm),
        half * (ep * dp3 * sp + em * dm3 * sm),
        half * (-ep * dp3 * sp + em * dm3 * sm),
        half * (ep * dp2 * sp - em * dm2 * sm),
        half * (-ep * dp1 * sp + em * dm1 * sm),
        half * (ep * cp - em * cm),
    ))


def _exp_cl30_cl12(x: Multivector, u: float) -> Multivector:
    a0, a1, a2, a3, a12, a13, a23, a123 = x.t
    factors = exp_factors(x)
    scale = math.exp(a0)
    ca, sa = math.cos(a123), math.sin(a123)

    if factors.branch is ExpBranch.BOTH_DEGENERATE:
        # (a + A)^2 = 0: the vector+bivector part is nilpotent, so the
        # exponential factors exactly into e^{a0} (cos a123 + e123 sin a123)
        # times (1 + a + A).
        center = (scale * ca, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, scale * sa)
        nil = (1.0, a1, a2, a3, a12, a13, a23, 0.0)
        return Multivector(x.sig, _PRODUCTS[x.sig](center, nil))

    ap, am, cn = factors.a_plus, factors.a_minus, factors.c_norm
    chp, shp = math.cosh(ap), math.sinh(ap)
    cm_, sm_ = math.cos(am), math.sin(am)

    b0 = ca * cm_ * chp - sa * sm_ * shp
    b123 = sa * cm_ * chp + ca * sm_ * shp

    out = [scale * b0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, scale * b123]

    # Vector/bivector pairs (a1, a23), (a2, a13), (a3, a12) share one body;
    # s is the pair sign and biv_idx the partner output slot.
    for vec_idx, biv_idx, s, v, w in ((1, 6, 1.0, a1, a23), (2, 5, -u, a2, a13), (3, 4, u, a3, a12)):
        big_x = am * v - s * ap * w
        big_y = ap * v + s * am * w
        f = chp * sm_ * (big_x * ca - big_y * sa) + shp * cm_ * (big_y * ca + big_x * sa)
        g = chp * sm_ * (big_y * ca + big_x * sa) + shp * cm_ * (big_y * sa - big_x * ca)
        out[vec_idx] = scale * f / cn
        out[biv_idx] = scale * s * g / cn
    return Multivector(x.sig, tuple(out))


def _exp_cl21(x: Multivector) -> Multivector:
    a0, a1, a2, a3, a12, a13, a23, a123 = x.t
    aps = -((a3 - a12) ** 2) + (a2 - a13) ** 2 + (a1 + a23) ** 2
    ams = -((a3 + a12) ** 2) + (a2 + a13) ** 2 + (a1 - a23) ** 2
    ep, em = math.exp(a123), math.exp(-a123)
    cop, com = _co(aps), _co(ams)
    sip, sim = _si(aps), _si(ams)
    half = 0.5 * math.exp(a0)
    return Multivector(x.sig, (
        half * (ep * cop + em * com),
        half * (ep * (a1 + a23) * sip + em * (a1 - a23) * sim),
        half * (ep * (a2 - a13) * sip + em * (a2 + a13) * sim),
        half * (ep * (a3 - a12) * sip + em * (a3 + a12) * sim),
        half * (-ep * (a3 - a12) * sip + em * (a3 + a12) * sim),
        half * (-ep * (a2 - a13) * sip + em * (a2 + a13) * sim),
        half * (ep * (a1 + a23) * sip - em * (a1 - a23) * sim),
        half * (ep * cop - em * com),
    ))


def exp(x: Multivector) -> Multivector:
    """Closed-form exponential of a general multivector.

    Raises ``NonFiniteError`` when the result overflows double precision.
    """
    sig = x.sig
    try:
        if sig is Signature.CL03:
            return _exp_cl03(x)
        if sig is Signature.CL30:
            return _exp_cl30_cl12(x, 1.0)
        if sig is Signature.CL12:
            return _exp_cl30_cl12(x, -1.0)
        return _exp_cl21(x)
    except OverflowError:
        raise NonFiniteError(f"exp of {x!r} overflows double precision") from None


def _directional_exp(x: Multivector, idx: slice, square: float) -> Multivector:
    """exp of a single-grade part with known signed square of that part
    (a nilpotent part, of square zero, gives 1 + part)."""
    out = [_co(square)] + [0.0] * 7
    ratio = _si(square)
    out[idx] = [ratio * v for v in x.t[idx]]
    return Multivector(x.sig, tuple(out))


def exp_particular(x: Multivector) -> Multivector:
    """Special-case exponential for blades and center elements.

    Accepts a pure vector, a pure bivector, or a scalar+pseudoscalar
    combination, and evaluates the corresponding de Moivre-style closed
    form directly.  Used as an independent cross-check of ``exp``.
    """
    a0, a1, a2, a3, a12, a13, a23, a123 = x.t
    present = {g for g, v in zip(BLADE_GRADES, x.t) if v != 0.0}
    s1, s2, s3 = x.sig.squares

    if present <= {0, 3}:
        if x.sig.i_square == -1:
            c, s = math.cos(a123), math.sin(a123)
        else:
            c, s = math.cosh(a123), math.sinh(a123)
        scale = math.exp(a0)
        return Multivector(x.sig, (scale * c, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, scale * s))

    if present == {1}:
        square = s1 * a1 * a1 + s2 * a2 * a2 + s3 * a3 * a3
        return _directional_exp(x, slice(1, 4), square)

    if present == {2}:
        square = -s1 * s2 * a12 * a12 - s1 * s3 * a13 * a13 - s2 * s3 * a23 * a23
        return _directional_exp(x, slice(4, 7), square)

    raise MixedGradeInputError(
        f"grades {sorted(present)} mix vector/bivector with other grades; "
        "expected a pure vector, a pure bivector, or scalar+pseudoscalar"
    )
