"""Truncated Taylor series of multivector functions.

A series of order ``n`` keeps every term of degree at most ``n``, matching
the subscript convention of the reference tables (the order-6 hyperbolic
sine is A + A^3/3! + A^5/5!).  Each coefficient is one correctly rounded
integer division N_p / p!, with N_p = 1 or ±A_p, the zigzag numbers of
sec x + tan x = Σ A_p x^p/p!.  A table ends at its last nonzero coefficient
(1/p! rounds to 0.0 from p = 178).  ``_SHAPES`` is the one place the families are
described: its row gives each one's powers, N_p, signs and Horner nesting.
Evaluation splits x = c + y: c = a0 + a123·e123 is central and so is
z = y².  Every power of x is then F + G·y with F, G in the center, and
Horner runs on (F, G), nested in x² for the even/odd families, on complex
numbers where e123² = -1 (e123 = i) and on (s, i) float pairs where e123² = +1,
with each pair product written out in the loop, the finish and the last-term powering.
``_row`` caches, per family and order, the constants ``series_eval`` reads.
"""

from __future__ import annotations

import enum
import math
import sys
from functools import lru_cache
from itertools import accumulate, repeat, takewhile
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

# Caps the order of the tangent and secant families, whose coefficients
# come from the O(n²) big-integer zigzag triangle: this bounds that work on
# CLI input.  The order-40 tables are the largest the benchmark uses.
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

    # Members are singletons compared by identity, so identity hashing is
    # consistent and keeps dict lookups keyed by a family cheap.
    __hash__ = object.__hash__


class SeriesSpec(NamedTuple("SeriesSpec", [("family", SeriesFamily), ("terms", int)])):
    """Family plus series order (highest power of the argument retained)."""

    __slots__ = ()

    def __new__(cls, family: SeriesFamily, terms: int):
        if not isinstance(family, SeriesFamily):
            names = ", ".join(f.name for f in SeriesFamily)
            raise ValueError(f"series family must be a SeriesFamily member ({names}), got {family!r}")
        from operator import index
        if isinstance(terms, bool):
            raise ValueError(f"series order must be an integer, got {terms!r}")
        if (terms := index(terms)) < 1:  # a Python int from here: one row-cache key per order
            raise ValueError(f"series order must be at least 1, got {terms}")
        return super().__new__(cls, family, terms)


@lru_cache(maxsize=None)
def _zigzag(n: int) -> tuple[int, ...]:
    """A_0..A_n of sec x + tan x = Σ A_p x^p/p!, by Seidel's boustrophedon: each
    row is the running sum, from 0, of the previous row reversed; A_m ends row m."""
    row, out = [1], [1]
    for _ in range(n):
        row = list(accumulate(reversed(row), initial=0))
        out.append(row[-1])
    return tuple(out)


@lru_cache(maxsize=None)
def bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0..B_n as exact fractions (B_1 = -1/2), from the zigzag numbers:
    B_m = (-1)^(m/2+1)·m·A_(m-1) / (4^m - 2^m) for even m >= 2."""
    from fractions import Fraction

    a = _zigzag(n)
    out = [Fraction(1), Fraction(-1, 2)]
    for m in range(2, n + 1):
        out.append(Fraction((-1) ** (m // 2 + 1) * m * a[m - 1], 4**m - 2**m) if m % 2 == 0 else Fraction(0))
    return tuple(out[: n + 1])


@lru_cache(maxsize=None)
def euler_numbers(n: int) -> tuple[Fraction, ...]:
    """E_0..E_n as exact fractions: E_m = (-1)^(m/2)·A_m, zero for odd m."""
    from fractions import Fraction

    a = _zigzag(n)
    return tuple(Fraction((-1) ** (m // 2) * a[m] if m % 2 == 0 else 0) for m in range(n + 1))


# Per family: first power, power step, N_p = A_p (else 1), and the sign
# (-1)^(p // 2) on x^p.  sin(x) = -i sinh(ix), cos(x) = cosh(ix), tan(x) =
# -i tanh(ix) and sec(x) = sech(ix) toggle that sign on each hyperbolic row.
_SHAPES = {
    SeriesFamily.EXP: (0, 1, False, False),
    SeriesFamily.SINH: (1, 2, False, False),
    SeriesFamily.COSH: (0, 2, False, False),
    SeriesFamily.SIN: (1, 2, False, True),
    SeriesFamily.COS: (0, 2, False, True),
    SeriesFamily.TANH: (1, 2, True, True),
    SeriesFamily.SECH_EULER: (0, 2, True, True),
    SeriesFamily.TAN: (1, 2, True, False),
    SeriesFamily.SEC_EULER: (0, 2, True, False),
}


def _term_table(family: SeriesFamily, order: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Powers and float coefficients of the series terms of degree <= order, up to the last nonzero one."""
    first, step, zigzag, alternate = _SHAPES[family]
    powers = range(first, order + 1, step)
    if zigzag and order > MAX_TABLE_ORDER:
        raise SeriesOrderError(
            f"{family.value} coefficients are tabulated up to order {MAX_TABLE_ORDER}, got {order}"
        )
    nums = map(_zigzag(order).__getitem__, powers) if zigzag else repeat(1)
    # Integer true division rounds correctly, and symmetrically: ±N_p / p! is ±float(Fraction(N_p, p!)).
    # 1 / p! rounds to 0.0 from p = 178 on, so the factorials and the table stop at the first zero.
    signed = ((-n if alternate and p // 2 % 2 else n) / math.factorial(p) for n, p in zip(nums, powers))
    coeffs = tuple(takewhile(bool, signed))
    return tuple(powers[: len(coeffs)]), coeffs


@lru_cache(maxsize=None)
def _row(family: SeriesFamily, order: int) -> tuple:
    """The Horner tail c_(M-step)..c_first and head c_M of the table (M its last power), N, first
    power, step and r = |c_N|^(1/N): c_N·x^N is powered as (r·x)^N, finite wherever c_N·x^N is."""
    powers, coeffs = _term_table(family, order)
    first, step = _SHAPES[family][:2]
    n = range(first, order + 1, step)[-1]
    cn = coeffs[-1] if n == powers[-1] else 0.0
    # The float c_N = ±1/N! is subnormal for N >= 171 and 0.0 past the table: r from log N! there.
    r = math.exp(-math.lgamma(n + 1) / n) if n and abs(cn) < sys.float_info.min else abs(cn) ** (1.0 / max(n, 1))
    return coeffs[-2::-1], coeffs[-1], n, first, step, r


def series_eval(x: Multivector, spec: SeriesSpec, return_last_term: bool = False):
    """Evaluate a truncated function series of ``x``.

    Returns the multivector value, or ``(value, last_term_delta)`` where
    the delta is the largest coefficient magnitude of the final summed
    term c_N·x^N: a divergence indicator the caller can surface.  Only
    y² and each G·y take a product kernel, whatever the order.
    """
    tail, cm, n, first, step, r = _row(spec.family, spec.terms)
    t, sig, cy = x.t, x.sig, _CENTER_Y[x.sig]
    z, n = _SQUARE_Y[sig](t, t), n if return_last_term else 0
    if sig.i_square < 0:
        # e123 = i: the center is the complex plane, and F, G, P, Q and z are complex numbers.
        z, xc, f, g = complex(*z), complex(t[0], t[7]), cm, 0.0
        if step == 1:  # P = x, Q = 1
            for c in tail:
                f, g = f * xc + g * z + c, f + g * xc
        else:
            p, q, w = xc * xc + z, 2.0 * xc, 2.0 * xc * z
            for c in tail:
                f, g = f * p + g * w + c, f * q + g * p
        if first:
            f, g = f * xc + g * z, f + g * xc
        fs, fi, gs, gi = f.real, f.imag, g.real, g.imag
        power, (u, v) = None, (r * xc, r)
        while n:
            if n & 1:
                power = (u, v) if power is None else (power[0] * u + power[1] * (v * z), power[0] * v + power[1] * u)
            n >>= 1
            if n:
                u, v = u * u + v * (v * z), 2.0 * u * v
        power = power and (power[0].real, power[0].imag, power[1].real, power[1].imag)
    else:
        # e123² = +1: F, G, P and Q are (s, i) float pairs, each product written out.
        t0, t7, (z0, z1), fs, fi, gs, gi = t[0], t[7], z, cm, 0.0, 0.0, 0.0
        if step == 1:  # P = x, Q = 1
            for c in tail:
                fs, fi, gs, gi = (fs * t0 + fi * t7 + gs * z0 + gi * z1 + c, fs * t7 + fi * t0 + gs * z1 + gi * z0,
                                  fs + gs * t0 + gi * t7, fi + gs * t7 + gi * t0)
        else:
            ps, pi, qs, qi = t0 * t0 + t7 * t7 + z0, 2.0 * t0 * t7 + z1, 2.0 * t0, 2.0 * t7
            ws, wi = qs * z0 + qi * z1, qs * z1 + qi * z0
            for c in tail:
                fs, fi, gs, gi = (fs * ps + fi * pi + gs * ws + gi * wi + c, fs * pi + fi * ps + gs * wi + gi * ws,
                                  fs * qs + fi * qi + gs * ps + gi * pi, fs * qi + fi * qs + gs * pi + gi * ps)
        if first:
            fs, fi, gs, gi = (fs * t0 + fi * t7 + gs * z0 + gi * z1, fs * t7 + fi * t0 + gs * z1 + gi * z0,
                              fs + gs * t0 + gi * t7, fi + gs * t7 + gi * t0)
        power, (ps, pi, qs, qi) = None, (r * t0, r * t7, r, 0.0)
        while n:
            ws, wi = qs * z0 + qi * z1, qs * z1 + qi * z0
            if n & 1:
                a, b, c, d = power = (ps, pi, qs, qi) if power is None else (
                    a * ps + b * pi + c * ws + d * wi, a * pi + b * ps + c * wi + d * ws,
                    a * qs + b * qi + c * ps + d * pi, a * qi + b * qs + c * pi + d * ps)
            n >>= 1
            if n:
                ps, pi, qs, qi = (ps * ps + pi * pi + qs * ws + qi * wi, ps * pi + pi * ps + qs * wi + qi * ws,
                                  ps * qs + pi * qi + qs * ps + qi * pi, ps * qi + pi * qs + qs * pi + qi * ps)
    value = Multivector._of(sig, (fs, *cy((gs, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, gi), t), fi))
    if not return_last_term:
        return value
    fs, fi, gs, gi = power or (abs(cm), 0.0, 0.0, 0.0)  # N = 0: c_M = c_0 = 1
    return value, max(abs(fs), abs(fi), *map(abs, cy((gs, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, gi), t)))
