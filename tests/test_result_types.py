"""Every public result holds eight Python floats, never an int or a numpy scalar.

Internal results skip the public constructor's conversion, which is sound
only while every kernel, row and series is fed floats; user-supplied values
(ints, ``np.float64``) must still pass through ``Multivector(sig, t)``.
"""

import math

import numpy as np
import pytest

from cl3 import (
    CenterElement,
    InvolutionKind,
    Multivector,
    Signature,
    adjugate,
    blade,
    exp,
    exp_particular,
    geometric_product,
    grade_select,
    hyperbolic_exact,
    inverse,
    involute,
    normalize,
    ratio_exact,
    trig_exact,
)
from cl3.remap import REMAP_TABLES, EvenMultivector, basis_remap
from cl3.series import SeriesFamily, SeriesSpec, series_eval
from cl3.spin import FieldConfig, evolve_spinor, field_at
from conftest import ALL_SIGS, rand_mv

SCALARS = (2, -3, 2.5, np.float64(0.75), np.float64(-4.0))


def assert_floats(m):
    assert type(m) is Multivector
    assert type(m.t) is tuple and len(m.t) == 8
    assert [type(v) for v in m.t] == [float] * 8, m.t


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_arithmetic_returns_floats(sig, rng):
    x, y = rand_mv(rng, sig), rand_mv(rng, sig)
    for m in (x * y, geometric_product(x, y), x + y, x - y, -x, x.reverse(), adjugate(x)):
        assert_floats(m)
    for kind in InvolutionKind:
        assert_floats(involute(x, kind))
    for g in range(4):
        assert_floats(grade_select(x, g))
    for a in SCALARS:
        for m in (x + a, a + x, x - a, a - x, x * a, a * x, x / a):
            assert_floats(m)
    center = CenterElement(np.float64(1.5), 2).as_multivector(sig)
    for m in (Multivector.zero(sig), Multivector.scalar(sig, np.float64(2.0)), blade(sig, "e12", 3), center):
        assert_floats(m)


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_inverse_returns_floats(sig, rng):
    x = rand_mv(rng, sig)
    tiny = Multivector(sig, tuple([math.ldexp(v, -700) for v in x.t]))
    for got in (inverse(x), inverse(tiny)):
        assert_floats(got.adjugate)
        assert_floats(got.inverse)
        assert type(got.determinant) is float


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_functions_return_floats(sig, rng):
    x = rand_mv(rng, sig)
    assert_floats(exp(x))
    for which in ("sin", "cos"):
        assert_floats(trig_exact(x, which))
    for which in ("sinh", "cosh"):
        assert_floats(hyperbolic_exact(x, which))
    for which in ("tan", "tanh"):
        assert_floats(ratio_exact(x, which))
    # det(cosh x) overflows here, so tanh retries on the rows scaled by 2^k.
    assert_floats(ratio_exact(Multivector(sig, (400.0, 0.1, 0, 0, 0, 0, 0, 0)), "tanh"))
    for policy in (3, 2.5, np.int64(3), np.float64(0.5)):
        assert_floats(normalize(x, policy)[0])
    for part in ((0, 7), (1, 2, 3), (4, 5, 6)):
        c = [0.0] * 8
        for i in part:
            c[i] = x.t[i]
        assert_floats(exp_particular(Multivector(sig, c)))


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_series_returns_floats(sig, rng):
    x = rand_mv(rng, sig, 0.5)
    for family in SeriesFamily:
        for order in (1, 2, 7):
            value, delta = series_eval(x, SeriesSpec(family, order), return_last_term=True)
            assert_floats(value)
            assert type(delta) is float


def test_remap_returns_floats(rng):
    for table in REMAP_TABLES.values():
        if table.src in ("cl13", "cl31"):
            even = EvenMultivector(table.src, rng.uniform(-1, 1, 8))
            assert_floats(basis_remap(even, table))
        else:
            x = rand_mv(rng, Signature.CL30)
            assert_floats(basis_remap(x, table))
            assert_floats(basis_remap(basis_remap(x, table), table))


def test_spinor_from_numpy_fields_holds_floats():
    cfg = FieldConfig(np.float64(0.3), np.float64(0.05), np.float64(1.0), -1, np.float64(1.0))
    psi0 = Multivector.scalar(Signature.CL30, 1.0)
    for t in (np.float64(12.5), 3):
        assert_floats(evolve_spinor(cfg, t, psi0))
        assert_floats(field_at(cfg, t))
