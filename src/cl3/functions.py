"""Exact trigonometric and hyperbolic multivector functions.

All functions here are built from the closed-form exponential: the
hyperbolic pair from e^{+/-A}, the trigonometric pair from e^{-/+ e123 A}
(which needs e123^2 = -1, so CL30/CL12 only), and the tangents as
sinh * cosh^{-1} through the adjugate inverse.
"""

from __future__ import annotations

import math

from .algebra import Multivector, Signature, blade, det_norm, geometric_product, inverse
from .exceptions import NormUndefinedError, UnsupportedSignatureError
from .exponential import exp

__all__ = ["trig_exact", "hyperbolic_exact", "ratio_exact", "normalize"]


def _trig(x: Multivector, names: tuple[str, ...]) -> list[Multivector]:
    """sin/cos of ``x`` for each name, from one pair e^{-/+ e123 x}."""
    if x.sig.i_square != -1:
        raise UnsupportedSignatureError(
            f"{names[0]} needs e123^2 = -1 (cl30 or cl12); use the series evaluator for {x.sig.name.lower()}"
        )
    i_mv = blade(x.sig, "e123")
    ia = geometric_product(i_mv, x)
    e_neg, e_pos = exp(-ia), exp(ia)
    return [(e_neg + e_pos) * 0.5 if name == "cos" else geometric_product(i_mv, e_neg - e_pos) * 0.5
            for name in names]


def _hyperbolic(x: Multivector, names: tuple[str, ...]) -> list[Multivector]:
    """sinh/cosh of ``x`` for each name, from one pair e^{+/-x}."""
    e_pos, e_neg = exp(x), exp(-x)
    return [(e_pos - e_neg) * 0.5 if name == "sinh" else (e_pos + e_neg) * 0.5 for name in names]


def trig_exact(x: Multivector, which: str) -> Multivector:
    """sin or cos of a multivector with commuting imaginary pseudoscalar."""
    if which not in ("sin", "cos"):
        raise ValueError(f"which must be 'sin' or 'cos', got {which!r}")
    return _trig(x, (which,))[0]


def hyperbolic_exact(x: Multivector, which: str) -> Multivector:
    """sinh or cosh of a general multivector, any of the four algebras."""
    if which not in ("sinh", "cosh"):
        raise ValueError(f"which must be 'sinh' or 'cosh', got {which!r}")
    return _hyperbolic(x, (which,))[0]


def ratio_exact(x: Multivector, which: str) -> Multivector:
    """tan or tanh via the exact inverse of cos/cosh.

    Numerator and denominator share one pair of exponentials.  Propagates
    ``NonInvertibleError`` when the denominator has no inverse.
    """
    if which == "tanh":
        num, den = _hyperbolic(x, ("sinh", "cosh"))
    elif which == "tan":
        num, den = _trig(x, ("sin", "cos"))
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
