"""Exact trigonometric and hyperbolic multivector functions.

sin and cos are rows of the closed-form exponential's bodies, in all four
algebras; the hyperbolic pair comes from e^{+/-x}, and the tangents are
sin * cos^{-1} and sinh * cosh^{-1} through the adjugate inverse.
"""

from __future__ import annotations

import math

from .algebra import Multivector, det_norm, geometric_product, inverse
from .exceptions import NormUndefinedError
from .exponential import _CENTER_FUNCTIONS, exp

__all__ = ["trig_exact", "hyperbolic_exact", "ratio_exact", "normalize"]


def _hyperbolic(x: Multivector, names: tuple[str, ...]) -> list[Multivector]:
    """sinh/cosh of ``x`` for each name, from one pair e^{+/-x}."""
    e_pos, e_neg = exp(x), exp(-x)
    return [(e_pos - e_neg) * 0.5 if name == "sinh" else (e_pos + e_neg) * 0.5 for name in names]


def trig_exact(x: Multivector, which: str) -> Multivector:
    """sin or cos of a general multivector, any of the four algebras."""
    if which not in ("sin", "cos"):
        raise ValueError(f"which must be 'sin' or 'cos', got {which!r}")
    return _CENTER_FUNCTIONS[which][x.sig](x)


def hyperbolic_exact(x: Multivector, which: str) -> Multivector:
    """sinh or cosh of a general multivector, any of the four algebras."""
    if which not in ("sinh", "cosh"):
        raise ValueError(f"which must be 'sinh' or 'cosh', got {which!r}")
    return _hyperbolic(x, (which,))[0]


def ratio_exact(x: Multivector, which: str) -> Multivector:
    """tan or tanh via the exact inverse of cos/cosh.

    tanh's numerator and denominator share one pair of exponentials.
    Propagates ``NonInvertibleError`` when the denominator has no inverse.
    """
    if which == "tanh":
        num, den = _hyperbolic(x, ("sinh", "cosh"))
    elif which == "tan":
        num, den = _CENTER_FUNCTIONS["sin"][x.sig](x), _CENTER_FUNCTIONS["cos"][x.sig](x)
    else:
        raise ValueError(f"which must be 'tan' or 'tanh', got {which!r}")
    return geometric_product(num, inverse(den).inverse)


def normalize(x: Multivector, policy="ceil") -> tuple[Multivector, float]:
    """Rescale a multivector so its determinant norm is at most one.

    ``policy`` is ``"ceil"`` (divide by the determinant norm rounded up to
    an integer, never below 1), ``"exact"`` (divide by the norm itself), or
    a positive number used as the divisor directly.  Returns the rescaled
    multivector and the scale used.
    """
    if isinstance(policy, (int, float)) and not isinstance(policy, bool):
        scale = float(policy)
        if scale <= 0.0:
            raise ValueError(f"scale factor must be positive, got {policy}")
    elif policy == "ceil":
        scale = float(max(1, math.ceil(det_norm(x))))
    elif policy == "exact":
        norm = det_norm(x)
        if norm == 0.0:
            raise NormUndefinedError("zero determinant; exact normalization undefined")
        scale = norm
    else:
        raise ValueError(f"policy must be 'ceil', 'exact' or a number, got {policy!r}")
    return x / scale, scale
