"""Center decomposition and its isolated square roots."""

import numpy as np
import pytest

from cl3 import (
    CenterElement,
    Multivector,
    NoIsolatedRootError,
    Signature,
    blade,
    center_decompose,
    center_product,
    sqrt_center,
)
from conftest import ALL_SIGS, rand_mv
from reference_values import REF_COEFFS, REF_SCALE


def _vector_bivector(x):
    c = x.c.copy()
    c[0] = 0.0
    c[7] = 0.0
    return Multivector(x.sig, c)


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_square_lands_in_center_and_matches_forms(sig, rng):
    # Oracle: multiply (a + A) by itself with the geometric product and read
    # off the scalar/pseudoscalar pair; CL03 carries the extra minus sign.
    flip = -1.0 if sig is Signature.CL03 else 1.0
    for _ in range(200):
        x = _vector_bivector(rand_mv(rng, sig, scale=2.0))
        sq = x * x
        assert np.abs(sq.c[1:7]).max() < 1e-12
        ce = center_decompose(x)
        assert abs(flip * sq.c[0] - ce.a_s) < 1e-12 * max(1.0, abs(ce.a_s))
        assert abs(flip * sq.c[7] - ce.a_i) < 1e-12 * max(1.0, abs(ce.a_i))


def test_decompose_examples():
    assert center_decompose(blade(Signature.CL30, "e1")) == CenterElement(1.0, 0.0)
    x = blade(Signature.CL03, "e1") + blade(Signature.CL03, "e23")
    assert center_decompose(x) == CenterElement(2.0, -2.0)


def test_decompose_ignores_scalar_and_pseudoscalar(rng):
    for sig in ALL_SIGS:
        x = rand_mv(rng, sig)
        assert center_decompose(x) == center_decompose(_vector_bivector(x))


def test_reference_mv_center_against_brute_force():
    x = _vector_bivector(Multivector(Signature.CL30, np.array(REF_COEFFS) / REF_SCALE))
    sq = x * x
    ce = center_decompose(x)
    assert abs(sq.c[0] - ce.a_s) < 1e-12
    assert abs(sq.c[7] - ce.a_i) < 1e-12


def test_sqrt_center_simple_pair():
    roots = sqrt_center(CenterElement(4.0, 0.0), Signature.CL30)
    values = sorted((r.a_s, r.a_i) for r in roots)
    assert values == [(-2.0, -0.0), (2.0, 0.0)] or values == [(-2.0, 0.0), (2.0, 0.0)]


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_sqrt_center_roots_square_back(sig, rng):
    for _ in range(300):
        a_s = rng.uniform(-3.0, 3.0)
        a_i = rng.uniform(-3.0, 3.0)
        if sig.i_square == -1:
            if a_i == 0.0 and a_s <= 0.0:
                continue
        else:
            if a_s <= abs(a_i):
                continue
        c = CenterElement(a_s, a_i)
        roots = sqrt_center(c, sig)
        assert len(roots) == (2 if sig.i_square == -1 else 4)
        for r in roots:
            sq = center_product(r, r, sig)
            assert abs(sq.a_s - a_s) < 1e-12 * max(1.0, abs(a_s))
            assert abs(sq.a_i - a_i) < 1e-12 * max(1.0, abs(a_i))


def test_sqrt_center_root_count_positive_axis():
    # On the positive real axis with a_i = 0 the second branch degenerates,
    # leaving a single +/- pair even when e123^2 = +1.
    roots = sqrt_center(CenterElement(9.0, 0.0), Signature.CL03)
    assert len(roots) == 2
    assert sorted(r.a_s for r in roots) == [-3.0, 3.0]


def test_sqrt_center_four_roots_when_conditions_hold():
    roots = sqrt_center(CenterElement(6.0, 4.0), Signature.CL21)
    assert len(roots) == 4
    plus = {(round(r.a_s, 10), round(r.a_i, 10)) for r in roots}
    assert len(plus) == 4
    # a_i^2 underflows here; the halves a_s +/- a_i still give the e123 * r pair.
    for sig in (Signature.CL03, Signature.CL21):
        for c in (CenterElement(4.0, 1e-170), CenterElement(9.0, -1e-300)):
            roots = sqrt_center(c, sig)
            assert len(set(roots)) == 4
            for r in roots:
                sq = center_product(r, r, sig)
                assert abs(sq.a_s - c.a_s) <= 1e-12 * abs(c.a_s)
                assert abs(sq.a_i - c.a_i) <= 1e-12 * abs(c.a_i)


@pytest.mark.parametrize(
    "sig,a_s,a_i",
    [
        (Signature.CL30, -1.0, 0.0),
        (Signature.CL12, -4.0, 0.0),
        (Signature.CL30, 0.0, 0.0),
        (Signature.CL03, -2.0, 1.0),
        (Signature.CL21, 1.0, 2.0),
        (Signature.CL21, -5.0, 1.0),
        (Signature.CL21, 2.0, 2.0),
    ],
)
def test_sqrt_center_condition_violations(sig, a_s, a_i):
    with pytest.raises(NoIsolatedRootError):
        sqrt_center(CenterElement(a_s, a_i), sig)


def test_roots_come_in_opposite_pairs(rng):
    roots = sqrt_center(CenterElement(5.0, 3.0), Signature.CL30)
    assert roots[0].a_s == -roots[1].a_s
    assert roots[0].a_i == -roots[1].a_i


def test_center_element_as_multivector():
    mv = CenterElement(2.0, -1.5).as_multivector(Signature.CL12)
    assert mv.c.tolist() == [2.0, 0, 0, 0, 0, 0, 0, -1.5]
