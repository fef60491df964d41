"""Truncated Taylor series of multivector functions.

A series of order ``n`` keeps every term of degree at most ``n``, matching
the subscript convention of the reference tables (the order-6 hyperbolic
sine is A + A^3/3! + A^5/5!).  Coefficients are rounded once to float:
the tangent and secant families from exact rationals (Bernoulli and Euler
numbers), the others as 1 / p! straight from the integer p!.
Evaluation splits x = c + y: c = a0 + a123·e123 is central and so is
z = y².  Every power of x is then F + G·y with F, G in the center, and
Horner runs on those four floats with ``_pair_product`` (inlined in the
loop), nested in x² for the even/odd families.
"""

from __future__ import annotations

import enum
import math
import sys
from functools import lru_cache
from itertools import takewhile
from typing import TYPE_CHECKING, NamedTuple

from .algebra import _CENTER_Y, _SQUARE_Y, Multivector
from .exceptions import SeriesOrderError

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "MAX_TABLE_ORDER",
    "SeriesFamily",
    "SeriesSpec",
    "series_eval",
    "bernoulli_numbers",
    "euler_numbers",
]

# Bernoulli/Euler numbers are tabulated up to this index, which caps the
# order of the tangent and secant families.  The order-40 tangent tables
# consume B_40, so 60 leaves headroom.
MAX_TABLE_ORDER = 60


class SeriesFamily(enum.Enum):
    EXP = "exp"
    SIN = "sin"
    COS = "cos"
    SINH = "sinh"
    COSH = "cosh"
    TAN = "tan"
    TANH = "tanh"
    SEC_EULER = "sec"
    SECH_EULER = "sech"


_TABLE_FAMILIES = (
    SeriesFamily.TAN,
    SeriesFamily.TANH,
    SeriesFamily.SEC_EULER,
    SeriesFamily.SECH_EULER,
)


class SeriesSpec(NamedTuple("SeriesSpec", [("family", SeriesFamily), ("terms", int)])):
    """Family plus series order (highest power of the argument retained)."""

    __slots__ = ()

    def __new__(cls, family: SeriesFamily, terms: int):
        if terms < 1:
            raise ValueError(f"series order must be at least 1, got {terms}")
        return super().__new__(cls, family, terms)


@lru_cache(maxsize=None)
def bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0..B_n as exact fractions (Akiyama-Tanigawa, B_1 = -1/2)."""
    from fractions import Fraction

    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = Fraction(-1, 2)
    return tuple(out)


@lru_cache(maxsize=None)
def euler_numbers(n: int) -> tuple[Fraction, ...]:
    """E_0..E_n as exact fractions (odd-index entries are zero).

    Generated from the reciprocal condition sech * cosh = 1, which is where
    the secant-family series coefficients come from in the first place.
    """
    from fractions import Fraction

    even = [Fraction(1)]
    for k in range(1, n // 2 + 1):
        acc = Fraction(0)
        for j in range(k):
            acc += even[j] / (math.factorial(2 * j) * math.factorial(2 * (k - j)))
        even.append(-math.factorial(2 * k) * acc)
    out = []
    for i in range(n + 1):
        out.append(even[i // 2] if i % 2 == 0 else Fraction(0))
    return tuple(out)


def _check_order(family: SeriesFamily, order: int) -> None:
    if family in _TABLE_FAMILIES and order > MAX_TABLE_ORDER:
        raise SeriesOrderError(
            f"{family.value} coefficients are tabulated up to order {MAX_TABLE_ORDER}, "
            f"got {order}"
        )


# sin(x) = -i sinh(ix), cos(x) = cosh(ix), tan(x) = -i tanh(ix) and
# sec(x) = sech(ix): the x^p term of each trigonometric series is the
# hyperbolic one times (-1)^(p // 2).
_HYPERBOLIC_OF = {
    SeriesFamily.SIN: SeriesFamily.SINH,
    SeriesFamily.COS: SeriesFamily.COSH,
    SeriesFamily.TAN: SeriesFamily.TANH,
    SeriesFamily.SEC_EULER: SeriesFamily.SECH_EULER,
}


@lru_cache(maxsize=None)
def _term_table(family: SeriesFamily, order: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Powers and float coefficients of all series terms of degree <= order."""
    _check_order(family, order)
    hyper = _HYPERBOLIC_OF.get(family, family)
    if hyper is SeriesFamily.EXP:
        powers = range(order + 1)
    elif hyper in (SeriesFamily.SINH, SeriesFamily.TANH):
        powers = range(1, order + 1, 2)
    else:  # COSH / SECH_EULER
        powers = range(0, order + 1, 2)
    if not powers:
        # Order 1 always keeps at least one term in every family.
        raise SeriesOrderError(f"{family.value} series has no terms of degree <= {order}")
    if hyper is SeriesFamily.TANH:
        bern = bernoulli_numbers(order + 1)
        # x^p takes 2^n (2^n - 1) B_n / n! with n = p + 1.
        coeffs = [2 ** (p + 1) * (2 ** (p + 1) - 1) * bern[p + 1] / math.factorial(p + 1) for p in powers]
    elif hyper is SeriesFamily.SECH_EULER:
        eul = euler_numbers(order)
        coeffs = [eul[p] / math.factorial(p) for p in powers]
    else:
        # Integer true division rounds correctly: 1 / p! is float(Fraction(1, p!)).
        # From p = 178 on it rounds to 0.0, so the factorials stop at the first zero.
        coeffs = list(takewhile(bool, (1 / math.factorial(p) for p in powers)))
        coeffs += [0.0] * (len(powers) - len(coeffs))
    if hyper is not family:
        coeffs = [-c if p // 2 % 2 else c for p, c in zip(powers, coeffs)]
    return tuple(powers), tuple(float(c) for c in coeffs)


def _pair_product(a, b, z, k):
    """(F + G·y)(P + Q·y) = (F·P + G·Q·z) + (F·Q + G·P)·y, each pair (F_s, F_i, G_s, G_i)."""
    (fs, fi, gs, gi), (ps, pi, qs, qi) = a, b
    ws, wi = qs * z[0] + k * qi * z[1], qs * z[1] + qi * z[0]
    return (fs * ps + k * fi * pi + gs * ws + k * gi * wi, fs * pi + fi * ps + gs * wi + gi * ws,
            fs * qs + k * fi * qi + gs * ps + k * gi * pi, fs * qi + fi * qs + gs * pi + gi * ps)


def series_eval(x: Multivector, spec: SeriesSpec, return_last_term: bool = False):
    """Evaluate a truncated function series of ``x``.

    Returns the multivector value, or ``(value, last_term_delta)`` where
    the delta is the largest coefficient magnitude of the final summed
    term c_N·x^N: a divergence indicator the caller can surface.  Only
    y² and each G·y take a product kernel, whatever the order.
    """
    powers, coeffs = _term_table(spec.family, spec.terms)
    t, sig = x.t, x.sig
    k, cy = sig.i_square, _CENTER_Y[sig]
    z, xp = _SQUARE_Y[sig](t, t), (t[0], t[7], 1.0, 0.0)
    ps, pi, qs, qi = xp if spec.family is SeriesFamily.EXP else _pair_product(xp, xp, z, k)
    # The step is _pair_product inlined; k = ±1 folds into constants exactly.
    ws, wi = qs * z[0] + k * qi * z[1], qs * z[1] + qi * z[0]
    kpi, kqi, kwi = k * pi, k * qi, k * wi
    fs, fi, gs, gi = coeffs[-1], 0.0, 0.0, 0.0
    for c in coeffs[-2::-1]:
        fs, fi, gs, gi = (fs * ps + fi * kpi + gs * ws + gi * kwi + c, fs * pi + fi * ps + gs * wi + gi * ws,
                          fs * qs + fi * kqi + gs * ps + gi * kpi, fs * qi + fi * qs + gs * pi + gi * ps)
    if powers[0] == 1:
        fs, fi, gs, gi = _pair_product((fs, fi, gs, gi), xp, z, k)
    value = Multivector(sig, (fs, *cy((gs, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, gi), t), fi))
    if not return_last_term:
        return value
    # c_N·x^N as (r·x)^N with r = |c_N|^(1/N), by binary powering on pairs:
    # it stays finite wherever c_N·x^N does, although x^N alone may not.
    n, c = powers[-1], coeffs[-1]
    # For N >= 171 the float c_N = ±1/N! is subnormal or 0 (the tabulated
    # families stop at order 60), so r comes from log N! there.
    r = math.exp(-math.lgamma(n + 1) / n) if abs(c) < sys.float_info.min else abs(c) ** (1.0 / max(n, 1))
    power, b = None, (r * t[0], r * t[7], r, 0.0)
    while n:
        if n & 1:
            power = b if power is None else _pair_product(power, b, z, k)
        n >>= 1
        if n:
            b = _pair_product(b, b, z, k)
    fs, fi, gs, gi = power or (abs(c), 0.0, 0.0, 0.0)
    return value, max(abs(fs), abs(fi), *map(abs, cy((gs, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, gi), t)))
