"""Truncated Taylor series of multivector functions.

A series of order ``n`` keeps every term of degree at most ``n``, matching
the subscript convention of the reference tables (the order-6 hyperbolic
sine is A + A^3/3! + A^5/5!).  Coefficients are rounded once to float:
the tangent and secant families from exact rationals (Bernoulli and Euler
numbers), the others as 1 / p! straight from the integer p!.
Evaluation is Horner-style: one geometric product per series term, nested
in the square of the argument for the even/odd families.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .algebra import _PRODUCTS, Multivector, geometric_product
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
        coeffs = [1 / math.factorial(p) for p in powers]
    if hyper is not family:
        coeffs = [-c if p // 2 % 2 else c for p, c in zip(powers, coeffs)]
    return tuple(powers), tuple(float(c) for c in coeffs)


def series_eval(x: Multivector, spec: SeriesSpec, return_last_term: bool = False):
    """Evaluate a truncated function series of ``x``.

    Returns the multivector value, or ``(value, last_term_delta)`` where
    the delta is the largest coefficient magnitude of the final summed
    term: a divergence indicator the caller can surface.
    """
    powers, coeffs = _term_table(spec.family, spec.terms)
    stride = 1 if spec.family is SeriesFamily.EXP else 2
    base = x if stride == 1 else geometric_product(x, x)
    odd_lead = powers[0] == 1

    prod = _PRODUCTS[x.sig]
    b = base.t
    acc = (coeffs[-1], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    for c in coeffs[-2::-1]:
        p = prod(acc, b)
        acc = (p[0] + c,) + p[1:]
    if odd_lead:
        acc = prod(acc, x.t)
    acc = Multivector(x.sig, acc)

    if not return_last_term:
        return acc
    # x^N by binary powering on tuples.  The first set bit takes its base as
    # is: 1 * b would differ only in the sign of zeros, which abs drops.  A
    # non-finite operand leaves no slot of a product finite, so an overflow
    # anywhere reaches the one Multivector check at the end.
    n, power, b = powers[-1], None, x.t
    while n:
        if n & 1:
            power = b if power is None else prod(power, b)
        n >>= 1
        if n:
            b = prod(b, b)
    c = coeffs[-1]
    tail = Multivector(x.sig, tuple([v * c for v in power or (1.0,) + (0.0,) * 7]))
    return acc, max(map(abs, tail.t))
