"""Closed-form exponential of a general multivector in all four 3D algebras.

The square z = (a + A)^2 of the vector + bivector part lies in the center
span{1, e123}, so exp(a0 + a + A + a123*e123) is
e^{a0} * e^{a123*e123} * (C(z) + S(z)*(a + A)) with the entire functions
C(z) = cosh(sqrt z) and S(z) = sinh(sqrt z)/sqrt z.  There is one formula
per center type: where e123^2 = -1 (CL30, CL12) the center is the complex
plane; where e123^2 = +1 (CL03, CL21) it splits into the two real halves
(1 +/- e123)/2.  ``exp`` has no tolerance and no branches: C and S switch
to short Maclaurin polynomials near zero, at fixed points.  sin, cos, sinh
and cosh share the formulas: f(c + y) = P(c)*C(k*z) + Q(c)*S(k*z)*(a + A)
with P = f, Q = f' and f'' = k*f; each (signature, function) pair is bound
to its own body at import.

``exp_factors`` reports the factor pair and a branch label for diagnosis
only; the label's tolerance is fixed, and ``exp`` never reads it.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import Callable, NamedTuple

from .algebra import _CENTER_Y, _SQUARE_Y, BLADE_GRADES, Multivector, Signature
from .center import center_decompose
from .exceptions import MixedGradeInputError, NonFiniteError

__all__ = [
    "ExpBranch",
    "ExpFactors",
    "degeneracy_eps",
    "exp_factors",
    "exp",
    "exp_particular",
]

# Relative tolerance of the ``exp_factors`` branch label.
_LABEL_EPS = 1e-12


def degeneracy_eps(x: Multivector) -> float:
    """Threshold below which ``exp_factors`` labels a factor square as zero.

    Scales with the squared size of the vector+bivector part, so the label
    does not depend on the input's overall scale; ``exp`` never reads it.
    """
    _, a1, a2, a3, a12, a13, a23, _ = x.t
    ss = a1 * a1 + a2 * a2 + a3 * a3 + a12 * a12 + a13 * a13 + a23 * a23
    return _LABEL_EPS * (ss + 1.0)


class ExpBranch(enum.Enum):
    GENERIC = "generic"
    PLUS_DEGENERATE = "plus-degenerate"
    MINUS_DEGENERATE = "minus-degenerate"
    BOTH_DEGENERATE = "both-degenerate"


class ExpFactors(NamedTuple):
    """Per-algebra factor pair of the closed-form exponential, for diagnosis.

    CL03 carries non-negative ``a_plus``/``a_minus`` (the exponential is
    trigonometric in both); CL30/CL12 carry the root a_plus + a_minus*e123
    of (a + A)^2 with a non-negative ``a_plus``, and ``c_norm`` =
    a_plus^2 + a_minus^2; CL21 carries only the signed squares.  ``branch``
    names the factor squares within ``degeneracy_eps`` of zero; ``exp``
    itself does not read it.
    """

    sig: Signature
    branch: ExpBranch
    a_plus_sq: float
    a_minus_sq: float
    a_plus: float | None = None
    a_minus: float | None = None
    c_norm: float | None = None


# (plus factor square is zero, minus factor square is zero) -> label.
_BRANCH = {
    (False, False): ExpBranch.GENERIC,
    (True, False): ExpBranch.PLUS_DEGENERATE,
    (False, True): ExpBranch.MINUS_DEGENERATE,
    (True, True): ExpBranch.BOTH_DEGENERATE,
}


_SQUARES = {sig: tuple(map(float, sig.squares)) for sig in Signature}


def _halves(t: tuple, s1: float, s2: float, s3: float) -> tuple:
    """Vectors d+ = (p1, p2, p3) and d- = (m1, m2, m3) that a + A becomes on
    the halves (1 +/- e123)/2, then their signed squares z+ and z-.

    Needs e123^2 = +1 (CL03, CL21), where e23, e13, e12 are s1*e123*e1,
    -s2*e123*e2 and s3*e123*e3 for the generator squares s1, s2, s3.
    """
    _, a1, a2, a3, a12, a13, a23, _ = t
    p1, p2, p3 = a1 + s1 * a23, a2 - s2 * a13, a3 + s3 * a12
    m1, m2, m3 = a1 - s1 * a23, a2 + s2 * a13, a3 - s3 * a12
    return (
        p1, p2, p3, m1, m2, m3,
        s1 * p1 * p1 + s2 * p2 * p2 + s3 * p3 * p3,
        s1 * m1 * m1 + s2 * m2 * m2 + s3 * m3 * m3,
    )


def exp_factors(x: Multivector) -> ExpFactors:
    """Factor pair of the closed-form exponential of ``x`` and its branch label."""
    sig = x.sig
    eps = degeneracy_eps(x)
    if sig.i_square == -1:
        ce = center_decompose(x)
        root = cmath.sqrt(complex(ce.a_s, ce.a_i))
        ap, am = root.real, root.imag
        aps, ams = ap * ap, am * am
        return ExpFactors(sig, _BRANCH[aps <= eps, ams <= eps], aps, ams, ap, am, aps + ams)
    *_, aps, ams = _halves(x.t, *_SQUARES[sig])
    branch = _BRANCH[abs(aps) <= eps, abs(ams) <= eps]
    if sig is Signature.CL21:
        return ExpFactors(sig, branch, aps, ams)
    # CL03: every vector squares negative, so the halves are rotations.
    return ExpFactors(sig, branch, -aps, -ams, math.sqrt(-aps), math.sqrt(-ams))


# Each Maclaurin polynomial below is used where its first dropped term
# (s^5/11!, s^5/10!) is below 1e-20: fixed switch points, independent of
# the input's scale.  Horner order adds the leading 1 last.
def _si(s):
    """sinh(sqrt(s))/sqrt(s), an entire function of a real or complex s."""
    if abs(s) <= 2.5e-3:
        return 1.0 + s * (1.0 / 6.0 + s * (1.0 / 120.0 + s * (1.0 / 5040.0 + s * (1.0 / 362880.0))))
    if type(s) is complex:
        r = cmath.sqrt(s)
        return cmath.sinh(r) / r
    if s > 0.0:
        r = math.sqrt(s)
        return math.sinh(r) / r
    r = math.sqrt(-s)
    return math.sin(r) / r


def _co(s):
    """cosh(sqrt(s)), an entire function of a real or complex s."""
    if abs(s) <= 1.4e-3:
        return 1.0 + s * (0.5 + s * (1.0 / 24.0 + s * (1.0 / 720.0 + s * (1.0 / 40320.0))))
    if type(s) is complex:
        return cmath.cosh(cmath.sqrt(s))
    if s > 0.0:
        return math.cosh(math.sqrt(s))
    return math.cos(math.sqrt(-s))


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """fl(a + b) and its exact rounding error (TwoSum)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _half_exp(s: float, err: float) -> float:
    """e^(s + err) / 2, finite wherever it is representable, although e^s may overflow."""
    h = math.exp(0.5 * s)
    return 0.5 * h * (h * (1.0 + err))


def _first_order(f: Callable, g: Callable, k: float) -> Callable:
    """(P, Q)/2 at s + err from P = f and Q = g = P', where Q' = k*P, to first order in err."""
    def half(s, err):
        p, q = f(s), g(s)
        return 0.5 * (p + err * q), 0.5 * (q + k * err * p)
    return half


def _center_body(sig: Signature, name: str, k: float, on_complex, on_half) -> Callable:
    """f(x) for x of ``sig`` from f's row: on the complex center (e123 = i) where e123^2 = -1,
    else on each idempotent half from (P, Q)/2 at c+/- = a0 +/- a123 given as a TwoSum pair."""
    split, (s1, s2, s3) = sig.i_square == 1, _SQUARES[sig]

    def body(x: Multivector) -> Multivector:
        t = x.t
        try:
            if split:
                (pp, qp), (pm, qm) = on_half(*_two_sum(t[0], t[7])), on_half(*_two_sum(t[0], -t[7]))
                p1, p2, p3, m1, m2, m3, zp, zm = _halves(t, s1, s2, s3)
                cp, cm = pp * _co(k * zp), pm * _co(k * zm)
                sp, sm = qp * _si(k * zp), qm * _si(k * zm)
                return Multivector._of(sig, (cp + cm, sp * p1 + sm * m1, sp * p2 + sm * m2, sp * p3 + sm * m3,
                                             s3 * (sp * p3 - sm * m3), -s2 * (sp * p2 - sm * m2),
                                             s1 * (sp * p1 - sm * m1), cp - cm))
            p, q = on_complex(complex(t[0], t[7]))
            zs, zi = _SQUARE_Y[sig](t, t)
            z = complex(k * zs, k * zi)
            c, s = p * _co(z), q * _si(z)
            # s * y has no scalar or pseudoscalar part; P * C fills those two slots.
            sy = _CENTER_Y[sig]((s.real, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, s.imag), t)
            return Multivector._of(sig, (c.real, *sy, c.imag))
        except (OverflowError, ValueError):
            # A product that overflowed quietly (NonFiniteError) and math.sin(inf) are ValueErrors.
            raise NonFiniteError(f"{name} of {x!r} overflows double precision") from None

    return body


# Per function: k, (P, Q) of c = a0 + i*a123 on the complex center, and
# (P, Q)/2 of c = s + err on one real half (c+/- = a0 +/- a123 as a TwoSum pair).
_ROWS = {
    "exp": (1.0, lambda c: (e := cmath.rect(math.exp(c.real), c.imag), e),
            lambda s, err: (h := _half_exp(s, err), h)),
    "sin": (-1.0, lambda c: (cmath.sin(c), cmath.cos(c)), _first_order(math.sin, math.cos, -1.0)),
    "cos": (-1.0, lambda c: (cmath.cos(c), -cmath.sin(c)), _first_order(math.cos, lambda s: -math.sin(s), -1.0)),
    "sinh": (1.0, lambda c: (cmath.sinh(c), cmath.cosh(c)), _first_order(math.sinh, math.cosh, 1.0)),
    "cosh": (1.0, lambda c: (cmath.cosh(c), cmath.sinh(c)), _first_order(math.cosh, math.sinh, 1.0)),
}

# f(x) = _CENTER_FUNCTIONS[f][x.sig](x), raising ``NonFiniteError`` that names f on overflow.
_CENTER_FUNCTIONS = {name: {sig: _center_body(sig, name, *row) for sig in Signature} for name, row in _ROWS.items()}


def exp(x: Multivector) -> Multivector:
    """Closed-form exponential of a general multivector.

    Raises ``NonFiniteError`` when the result overflows double precision.
    """
    return _CENTER_FUNCTIONS["exp"][x.sig](x)


def _directional_exp(x: Multivector, idx: slice, square: float) -> Multivector:
    """exp of a single-grade part with known signed square of that part
    (a nilpotent part, of square zero, gives 1 + part)."""
    out = [_co(square)] + [0.0] * 7
    ratio = _si(square)
    out[idx] = [ratio * v for v in x.t[idx]]
    return Multivector._of(x.sig, tuple(out))


def exp_particular(x: Multivector) -> Multivector:
    """Special-case exponential for blades and center elements.

    Accepts a pure vector, a pure bivector, or a scalar+pseudoscalar
    combination, and evaluates the corresponding de Moivre-style closed
    form directly.  Used as an independent cross-check of ``exp``.  Raises
    ``NonFiniteError`` when the result overflows double precision.
    """
    a0, a1, a2, a3, a12, a13, a23, a123 = x.t
    present = {g for g, v in zip(BLADE_GRADES, x.t) if v != 0.0}
    s1, s2, s3 = x.sig.squares

    try:
        if present <= {0, 3}:
            if x.sig.i_square == -1:
                scale = math.exp(a0)
                c, s = scale * math.cos(a123), scale * math.sin(a123)
            else:
                # e^{a0} (cosh a123, sinh a123) from one exponential; expm1
                # keeps the sinh term exact for small a123.
                half = _half_exp(*_two_sum(a0, abs(a123)))
                d = -math.expm1(-2.0 * abs(a123))
                c, s = half * (2.0 - d), math.copysign(half * d, a123)
            return Multivector._of(x.sig, (c, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, s))

        if present == {1}:
            square = s1 * a1 * a1 + s2 * a2 * a2 + s3 * a3 * a3
            return _directional_exp(x, slice(1, 4), square)

        if present == {2}:
            square = -s1 * s2 * a12 * a12 - s1 * s3 * a13 * a13 - s2 * s3 * a23 * a23
            return _directional_exp(x, slice(4, 7), square)
    except (OverflowError, NonFiniteError):
        raise NonFiniteError(f"exp of {x!r} overflows double precision") from None

    raise MixedGradeInputError(
        f"grades {sorted(present)} mix vector/bivector with other grades; "
        "expected a pure vector, a pure bivector, or scalar+pseudoscalar"
    )
