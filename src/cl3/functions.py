"""Exact trigonometric and hyperbolic multivector functions.

sin, cos, sinh and cosh are rows of the closed-form exponential's center
evaluator, in all four algebras; the tangents are sin * cos^{-1} and
sinh * cosh^{-1} through the adjugate inverse.
"""

from __future__ import annotations

import math

from .algebra import Multivector, det_norm, geometric_product, inverse
from .exceptions import NonFiniteError, NormUndefinedError
from .exponential import _CENTER_FUNCTIONS

__all__ = ["trig_exact", "hyperbolic_exact", "ratio_exact", "normalize"]

_RATIOS = {"tan": ("sin", "cos"), "tanh": ("sinh", "cosh")}


def trig_exact(x: Multivector, which: str) -> Multivector:
    """sin or cos of a general multivector, any of the four algebras."""
    if which not in ("sin", "cos"):
        raise ValueError(f"which must be 'sin' or 'cos', got {which!r}")
    return _CENTER_FUNCTIONS[which][x.sig](x)


def hyperbolic_exact(x: Multivector, which: str) -> Multivector:
    """sinh or cosh of a general multivector, any of the four algebras."""
    if which not in ("sinh", "cosh"):
        raise ValueError(f"which must be 'sinh' or 'cosh', got {which!r}")
    return _CENTER_FUNCTIONS[which][x.sig](x)


def ratio_exact(x: Multivector, which: str) -> Multivector:
    """tan or tanh as sin * cos^{-1} or sinh * cosh^{-1}, through the exact inverse;
    propagates ``NonInvertibleError`` when the denominator has no inverse, and
    ``NonFiniteError`` when a row itself overflows."""
    if which not in _RATIOS:
        raise ValueError(f"which must be 'tan' or 'tanh', got {which!r}")
    num, den = (_CENTER_FUNCTIONS[name][x.sig](x) for name in _RATIOS[which])
    try:
        den_inv = inverse(den).inverse
    except NonFiniteError:  # det(den) overflows: retry once on num, den times 2^k (sum |den_i| < 1)
        k = -math.frexp(sum(map(abs, den.t)))[1]
        num, den = (Multivector._of(x.sig, tuple([math.ldexp(v, k) for v in y.t])) for y in (num, den))
        den_inv = inverse(den).inverse
    return geometric_product(num, den_inv)


def normalize(x: Multivector, policy="ceil") -> tuple[Multivector, float]:
    """Rescale a multivector so its determinant norm is at most one.

    ``policy`` is ``"ceil"`` (divide by the determinant norm rounded up to
    an integer, never below 1), ``"exact"`` (divide by the norm itself), or
    a positive number used as the divisor directly.  Returns the rescaled
    multivector, ``x`` itself when the scale is 1, and the scale used.
    """
    if isinstance(policy, float) or hasattr(policy, "__index__") and not isinstance(policy, bool):  # numpy ints too
        scale = float(policy)
        if not 0.0 < scale < math.inf:
            raise ValueError(f"scale factor must be positive and finite, got {policy}")
    elif policy == "ceil":
        scale = float(max(1, math.ceil(det_norm(x))))
    elif policy == "exact":
        scale = det_norm(x)
        if scale == 0.0:
            raise NormUndefinedError("zero determinant; exact normalization undefined")
    else:
        raise ValueError(f"policy must be 'ceil', 'exact' or a number, got {policy!r}")
    # v / 1.0 is v, -0.0 included, so scale 1 returns x itself.
    return x if scale == 1.0 else Multivector._of(x.sig, tuple([v / scale for v in x.t])), scale
