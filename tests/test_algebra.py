"""Core multivector arithmetic: products, involutions, determinant, inverse."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cl3
from cl3 import (
    Cl3Error,
    EVEN_BLADE_NAMES,
    EvenMultivector,
    InvolutionKind,
    Multivector,
    NonFiniteError,
    NonInvertibleError,
    NormUndefinedError,
    Signature,
    SignatureMismatchError,
    adjugate,
    blade,
    blades,
    det_norm,
    determinant,
    even_geometric_product,
    geometric_product,
    grade_select,
    inverse,
    involute,
    sign_table,
)
from cl3.algebra import _BLADE_MASKS, _CENTER_Y, _INVOLUTION_SIGNS, _PRODUCTS, _SQUARE_Y, _product_kernel, blade_product
from conftest import ALL_SIGS, bench_reference, max_err, rand_mv
from reference_values import REF_COEFFS, REF_DET

# Hand-derived CL30 blade product table in the order
# [1, e1, e2, e3, e12, e13, e23, e123]: worked out on paper from the
# generator relations, independently of the programmatic construction.
CL30_INDEX = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 0, 4, 5, 2, 3, 7, 6],
    [2, 4, 0, 6, 1, 7, 3, 5],
    [3, 5, 6, 0, 7, 1, 2, 4],
    [4, 2, 1, 7, 0, 6, 5, 3],
    [5, 3, 7, 1, 6, 0, 4, 2],
    [6, 7, 3, 2, 5, 4, 0, 1],
    [7, 6, 5, 4, 3, 2, 1, 0],
]
CL30_SIGN = [
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, -1, 1, 1, -1, -1, 1, -1],
    [1, -1, -1, 1, 1, -1, -1, 1],
    [1, -1, 1, 1, -1, -1, 1, -1],
    [1, -1, -1, 1, 1, -1, -1, 1],
    [1, 1, -1, 1, -1, 1, -1, -1],
    [1, 1, -1, 1, -1, 1, -1, -1],
]


def test_cl30_sign_table_snapshot():
    index, sign = sign_table(Signature.CL30)
    assert index.tolist() == CL30_INDEX
    assert sign.tolist() == CL30_SIGN


mv_coeffs = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=8, max_size=8
)
sig_st = st.sampled_from(list(Signature))


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_generator_squares(sig):
    for k, sq in enumerate(sig.squares, start=1):
        e = blade(sig, f"e{k}")
        assert (e * e).c.tolist() == [float(sq), 0, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_generator_anticommutation(sig):
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            ei, ej = blade(sig, f"e{i}"), blade(sig, f"e{j}")
            assert max_err(ei * ej, -(ej * ei)) == 0.0


def test_product_examples():
    cl30, cl03 = Signature.CL30, Signature.CL03
    assert (blade(cl30, "e1") * blade(cl30, "e1")).c[0] == 1.0
    assert (blade(cl03, "e1") * blade(cl03, "e1")).c[0] == -1.0
    for sig in ALL_SIGS:
        assert blade(sig, "e1") * blade(sig, "e3") == blade(sig, "e13")
        assert blade(sig, "e3") * blade(sig, "e1") == blade(sig, "e13", -1.0)
    assert blade(cl30, "e12") * blade(cl30, "e13") == blade(cl30, "e23", -1.0)


def test_pseudoscalar_square_and_centrality(rng):
    for sig in ALL_SIGS:
        i_mv = blade(sig, "e123")
        assert (i_mv * i_mv).c[0] == sig.i_square
        x = rand_mv(rng, sig)
        assert max_err(i_mv * x, x * i_mv) == 0.0


@given(sig=sig_st, a=mv_coeffs, b=mv_coeffs, c=mv_coeffs)
@settings(max_examples=60, deadline=None)
def test_associativity_distributivity(sig, a, b, c):
    x, y, z = (Multivector(sig, v) for v in (a, b, c))
    assoc = max_err((x * y) * z, x * (y * z))
    scale = max(1.0, float(np.abs(((x * y) * z).c).max()))
    assert assoc <= 1e-12 * scale
    dist = max_err(x * (y + z), x * y + x * z)
    assert dist <= 1e-12 * max(1.0, float(np.abs((x * y + x * z).c).max()))


def test_signature_mismatch_errors(rng):
    x = rand_mv(rng, Signature.CL30)
    y = rand_mv(rng, Signature.CL03)
    with pytest.raises(SignatureMismatchError):
        geometric_product(x, y)
    with pytest.raises(SignatureMismatchError):
        x + y


def test_multivector_validation():
    with pytest.raises(ValueError):
        Multivector(Signature.CL30, [1, 2, 3])
    with pytest.raises(ValueError):
        Multivector(Signature.CL30, [np.inf, 0, 0, 0, 0, 0, 0, 0])
    # Operands that are neither multivectors nor real scalars are refused.
    x = Multivector.scalar(Signature.CL30, 2.0)
    for op in (lambda: x + "a", lambda: x * "a", lambda: x / x):
        with pytest.raises(TypeError):
            op()


def test_involution_examples():
    cl30 = Signature.CL30
    assert involute(blade(cl30, "e12"), InvolutionKind.REVERSE) == blade(cl30, "e12", -1.0)
    x = blade(cl30, "e1") + blade(cl30, "e12")
    gi = involute(x, InvolutionKind.GRADE_INVERSE)
    assert gi == blade(cl30, "e1", -1.0) + blade(cl30, "e12")


@given(sig=sig_st, coeffs=mv_coeffs, kind=st.sampled_from(list(InvolutionKind)))
@settings(max_examples=60, deadline=None)
def test_involutions_are_involutions(sig, coeffs, kind):
    x = Multivector(sig, coeffs)
    assert involute(involute(x, kind), kind) == x


def test_involution_composition(rng):
    for sig in ALL_SIGS:
        x = rand_mv(rng, sig)
        both = involute(involute(x, InvolutionKind.REVERSE), InvolutionKind.GRADE_INVERSE)
        assert both == involute(x, InvolutionKind.REVERSE_GRADE_INVERSE)


def test_involutions_are_antiautomorphic_or_automorphic(rng):
    # reverse(xy) = reverse(y) reverse(x); gradeinv(xy) = gradeinv(x) gradeinv(y)
    for sig in ALL_SIGS:
        x, y = rand_mv(rng, sig), rand_mv(rng, sig)
        rev = lambda m: involute(m, InvolutionKind.REVERSE)
        gi = lambda m: involute(m, InvolutionKind.GRADE_INVERSE)
        assert max_err(rev(x * y), rev(y) * rev(x)) < 1e-12
        assert max_err(gi(x * y), gi(x) * gi(y)) < 1e-12


def test_grade_select_examples():
    cl30 = Signature.CL30
    x = Multivector(cl30, [2.0, 3.0, 0, 0, 0, 0, 0, 0])
    assert grade_select(x, 0) == Multivector.scalar(cl30, 2.0)
    assert x.grade(1) == grade_select(x, 1) and x.scalar_part == 2.0
    assert str(x) == "2 + 3*e1"
    assert grade_select(blade(cl30, "e13"), 2) == blade(cl30, "e13")
    with pytest.raises(ValueError):
        grade_select(x, 4)


@given(sig=sig_st, coeffs=mv_coeffs)
@settings(max_examples=40, deadline=None)
def test_grade_partition(sig, coeffs):
    x = Multivector(sig, coeffs)
    total = Multivector.zero(sig)
    for g in range(4):
        total = total + grade_select(x, g)
    assert total == x


def test_determinant_reference_value():
    x = Multivector(Signature.CL30, REF_COEFFS)
    assert determinant(x) == REF_DET


def test_determinant_trivial_cases():
    for sig in ALL_SIGS:
        assert determinant(Multivector.scalar(sig, 1.0)) == 1.0
        assert determinant(Multivector.scalar(sig, -3.0)) == 81.0


def test_determinant_multiplicative(rng):
    for sig in ALL_SIGS:
        for _ in range(30):
            x, y = rand_mv(rng, sig), rand_mv(rng, sig)
            dx, dy, dxy = determinant(x), determinant(y), determinant(x * y)
            assert abs(dxy - dx * dy) <= 1e-10 * max(1.0, abs(dx * dy))


def test_adjugate_two_sided(rng):
    for sig in ALL_SIGS:
        x = rand_mv(rng, sig)
        adj = adjugate(x)
        det = determinant(x)
        scale = max(1.0, float(np.abs(x.c).sum()) ** 4)
        assert max_err(x * adj, Multivector.scalar(sig, det)) <= 1e-10 * scale
        assert max_err(adj * x, Multivector.scalar(sig, det)) <= 1e-10 * scale


def test_inverse_examples():
    cl30 = Signature.CL30
    assert inverse(Multivector.scalar(cl30, 2.0)).inverse == Multivector.scalar(cl30, 0.5)
    assert inverse(blade(cl30, "e1")).inverse == blade(cl30, "e1")


def test_inverse_random_identity(rng):
    one = np.eye(8)[0]
    for sig in ALL_SIGS:
        for _ in range(50):
            x = rand_mv(rng, sig)
            got = geometric_product(x, inverse(x).inverse)
            assert max_err(got, one) <= 1e-12 * max(1.0, float(np.abs(x.c).sum()) ** 4)


def test_non_invertible_carries_partial_results():
    cl30 = Signature.CL30
    x = Multivector.scalar(cl30, 1.0) + blade(cl30, "e1")  # (1+e1)(1-e1) = 0
    with pytest.raises(NonInvertibleError) as exc:
        inverse(x)
    assert exc.value.determinant == 0.0
    assert isinstance(exc.value.adjugate, Multivector)


def test_determinant_and_inverse_past_the_fourth_power_range():
    # sum |c| = 1.4e77, so (sum |c|)^4 lies past the float range, although
    # every product the determinant and the inverse form is finite.
    cl30 = Signature.CL30
    base = Multivector(cl30, (3, 1, 2, 1, 2, 1, 3, 1))
    x = base * 1e76
    assert determinant(base) == 256.0
    assert determinant(x) == pytest.approx(2.56e306, rel=1e-12)
    assert det_norm(x) == pytest.approx(4e76, rel=1e-12)
    got = inverse(x)
    assert got.determinant == pytest.approx(2.56e306, rel=1e-12)
    assert max_err(got.inverse * 1e76, inverse(base).inverse) <= 1e-15
    # The singular cutoff still applies at that scale.
    with pytest.raises(NonInvertibleError):
        inverse((Multivector.scalar(cl30, 1.0) + blade(cl30, "e1")) * 1e77)


@given(sig=sig_st, coeffs=mv_coeffs, scale=st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8]))
@example(sig=Signature.CL30, coeffs=[0.0] * 7 + [1.3e-81], scale=1.0)  # det(x) is subnormal
@example(sig=Signature.CL30, coeffs=[0.0] * 7 + [2.2250738585072014e-308], scale=1e-8)  # 1/x overflows
@settings(max_examples=150, deadline=None)
def test_x_times_its_inverse_is_one(sig, coeffs, scale):
    x = Multivector(sig, coeffs) * scale
    # det(x) underflows for tiny x, so its conditioning is taken on x scaled by
    # a power of two to a coefficient sum near one.
    k = -math.frexp(sum(map(abs, x.t)))[1]
    unit = Multivector(sig, tuple([math.ldexp(v, k) for v in x.t]))
    try:
        got = inverse(x)
    except NonInvertibleError:
        assume(False)
    except NonFiniteError:
        # Only where x^-1 = 2^k unit^-1 lies past the float range.
        with pytest.raises(OverflowError):
            [math.ldexp(v, k) for v in inverse(unit).inverse.t]
        return
    # x * adj = det up to rounding of size eps * (sum |c|)^4, so the identity
    # holds to that over |det|.
    cond = (sum(map(abs, unit.t)) / abs(determinant(unit)) ** 0.25) ** 4
    assert max_err(x * got.inverse, np.eye(8)[0]) <= 1e-14 * cond
    assert max_err(got.inverse * x, np.eye(8)[0]) <= 1e-14 * cond


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_tiny_invertible_inputs_invert(sig, rng):
    # det(2^-k x) = 2^-4k det(x) underflows from k of about 250, and 1/det
    # overflows before; the inverse is 2^k inv(x), bit for bit.
    base = rand_mv(rng, sig)
    want = inverse(base).inverse
    for k in (150, 200, 260, 500, 1000):
        tiny = Multivector(sig, tuple([math.ldexp(v, -k) for v in base.t]))
        got = inverse(tiny)
        assert got.inverse.t == tuple([math.ldexp(v, k) for v in want.t]), k
        assert got.determinant == determinant(tiny)
    with pytest.raises(NonFiniteError, match=r"^inverse of .* overflows double precision$"):
        inverse(Multivector.scalar(sig, 5e-324))


def test_singular_cutoff_message_is_stated_in_fourth_roots():
    # (sum |c|)^4 = 1.6e321 overflows, but its fourth root does not.
    x = Multivector(Signature.CL03, (1e80, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e80))
    with pytest.raises(NonInvertibleError) as exc:
        inverse(x)
    assert str(exc.value).endswith("|det|^(1/4) = 0.000000e+00 <= 1e-3 * sum |c_i| = 2.000000e+77")
    assert "inf" not in str(exc.value)


# Zero divisors r * (1 + u), u^2 = 1: u = e1 (e1^2 = +1) where there is one, else e123.
_UNIT_SQUARE_SLOT = {Signature.CL30: 1, Signature.CL12: 1, Signature.CL21: 1, Signature.CL03: 7}


def _near_singular(sig, coeffs, eps):
    u = [1.0] + [0.0] * 7
    u[_UNIT_SQUARE_SLOT[sig]] = 1.0
    return Multivector(sig, coeffs) * Multivector(sig, tuple(u)) + Multivector(sig, eps)


@given(sig=st.sampled_from([Signature.CL30, Signature.CL12]), coeffs=mv_coeffs,
       eps=st.lists(st.floats(min_value=-1e-6, max_value=1e-6), min_size=8, max_size=8),
       scale=st.sampled_from([1e-30, 1.0, 1e30, 1e70]))
@settings(max_examples=200, deadline=None)
def test_determinant_is_nonnegative_where_e123_squares_to_minus_one(sig, coeffs, eps, scale):
    # det = n_s^2 + n_i^2 of the central x * conj(x): never negative, also
    # for generic and near-singular inputs at any scale.
    assert determinant(Multivector(sig, coeffs) * scale) >= 0.0
    x = _near_singular(sig, coeffs, eps) * scale
    assert determinant(x) >= 0.0
    det_norm(x)


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_determinant_and_inverse_match_the_oracle(sig):
    # Generic and near-singular inputs over scales 1e-8 ... 1e80 against the
    # 50-digit oracle: det to 1e-15 of (sum |c|)^4, and the inverse to its
    # conditioning (sum |c|)^4 / |det|, less one digit.
    import mpmath as mp

    ref = bench_reference()
    alg = sig.name.lower()
    rng = np.random.default_rng(1212)
    cases = [(scale, eps) for scale in (1e-8, 1.0, 1e30, 1e70) for eps in (None, 1e-3)] + [(1e80, 1e-9)]
    for scale, eps in cases:
        coeffs = tuple(rng.uniform(-1.0, 1.0, 8).tolist())
        x = Multivector(sig, coeffs) if eps is None else _near_singular(sig, coeffs, tuple(rng.uniform(-eps, eps, 8)))
        x = x * scale
        want = ref.oracle_eval(alg, "determinant", x.t)[0]
        with mp.workdps(50):
            s4 = mp.mpf(sum(map(abs, x.t))) ** 4
            assert abs(mp.mpf(determinant(x)) - want) <= 1e-15 * s4, (scale, eps)
            floor = 15 + float(mp.log10(abs(want) / s4))
        if eps == 1e-9:
            with pytest.raises(NonInvertibleError) as exc:
                inverse(x)
            assert exc.value.determinant == determinant(x)
            continue
        got = inverse(x)
        assert got.determinant == determinant(x)
        assert ref.oracle_digits(got.inverse.t, ref.oracle_eval(alg, "inverse", x.t)) >= floor, (scale, eps)


def test_adjugate_overflow_names_the_determinant():
    # x * conj(x) = 2e300 * (1 + e123) is finite and det(x) = 0, but the
    # adjugate conj(x) * conj(n) forms 1e150 * 2e300.
    x = Multivector(Signature.CL03, (1e150, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e150))
    assert determinant(x) == 0.0 and det_norm(x) == 0.0
    for f in (adjugate, inverse):
        with pytest.raises(NonFiniteError, match=r"^determinant of Multivector\(.+\) overflows double precision$"):
            f(x)


def test_determinant_overflow_is_a_typed_error():
    # The adjugate (about 1e231) is finite; the determinant (about 5e308) is not.
    x = Multivector(Signature.CL30, (3, 1, 2, 1, 2, 1, 3, 1)) * 3e76
    for f in (determinant, inverse, adjugate):
        with pytest.raises(NonFiniteError):
            f(x)


@pytest.mark.parametrize("sig", [Signature.CL30, Signature.CL03])
@pytest.mark.parametrize("scale", [3e76, 1e103])
def test_determinant_overflow_names_the_overflow(sig, scale):
    # At 3e76 only x * adj overflows; at 1e103 the adjugate itself does.
    # Every input coefficient is finite, so the message names the overflow.
    x = Multivector(sig, (3, 1, 2, 1, 2, 1, 3, 1)) * scale
    for f in (determinant, inverse, det_norm, adjugate):
        with pytest.raises(NonFiniteError, match=r"^determinant of Multivector\(.+\) overflows double precision$"):
            f(x)


def test_det_norm_reference():
    x = Multivector(Signature.CL30, REF_COEFFS)
    assert abs(det_norm(x) - REF_DET ** 0.25) < 1e-10
    assert det_norm(Multivector.scalar(Signature.CL30, 1.0)) == 1.0


def test_det_norm_scales_linearly(rng):
    for sig in (Signature.CL30, Signature.CL03):
        x = rand_mv(rng, sig)
        n = det_norm(x)
        for s in (0.5, 2.0, 7.25):
            assert abs(det_norm(x * s) - s * n) <= 1e-10 * max(1.0, s * n)


def test_det_norm_negative_determinant_errors():
    x = Multivector(Signature.CL21, [1, 1, 0, 1, 0, 0, 1, 0])
    assert determinant(x) == -4.0
    with pytest.raises(NormUndefinedError):
        det_norm(x)


def test_blades_helper():
    table = blades(Signature.CL12)
    assert set(table) == {"1", "e1", "e2", "e3", "e12", "e13", "e23", "e123"}
    assert table["e12"].c[4] == 1.0
    with pytest.raises(ValueError):
        blade(Signature.CL12, "e31")


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_product_kernel_matches_sign_table(sig):
    index, sign = sign_table(sig)
    unit = np.eye(8)
    for i in range(8):
        for j in range(8):
            got = geometric_product(Multivector(sig, unit[i]), Multivector(sig, unit[j]))
            assert got.t == tuple(sign[i, j] * unit[index[i, j]])


def _bits(values):
    return [v.hex() for v in values]


def _kernel_inputs(seed):
    """1000 coefficient pairs; every fourth pair has +0.0 slots and every
    fourth -0.0 slots, so the sign of a zero sum is compared too."""
    rng = np.random.default_rng(seed)
    for i in range(1000):
        a, b = rng.uniform(-1.0, 1.0, (2, 8)) * 10.0 ** rng.uniform(-5.0, 5.0)
        if i % 4 in (1, 2):
            zero = 0.0 if i % 4 == 1 else -0.0
            a[rng.random(8) < 0.5], b[rng.random(8) < 0.5] = zero, zero
        yield tuple(a.tolist()), tuple(b.tolist())


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_restricted_kernels_equal_the_full_product_slots(sig):
    # y = slots 1-6 and c = slots 0 and 7 of an input; the restricted kernels
    # read only those slots of full tuples and return the full product's
    # slots 0, 7 (y * y) and 1-6 (c * y), bit for bit.
    full = _PRODUCTS[sig]
    for a, b in _kernel_inputs(4321):
        y, c = (0.0, *b[1:7], 0.0), (a[0], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, a[7])
        yy = full(y, y)
        assert _bits(_SQUARE_Y[sig](b, b)) == _bits((yy[0], yy[7]))
        assert _bits(_CENTER_Y[sig](a, b)) == _bits(full(c, y)[1:7])


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_default_kernel_generator_reproduces_the_full_product(sig):
    kernel = _product_kernel(_BLADE_MASKS, sig.squares)
    assert kernel.__code__.co_code == _PRODUCTS[sig].__code__.co_code
    for a, b in _kernel_inputs(8765):
        assert _bits(kernel(a, b)) == _bits(_PRODUCTS[sig](a, b))


# Generator bitmasks of EVEN_BLADE_NAMES and the 4D generator squares.
EVEN_MASKS = (0b0000, 0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100, 0b1111)
EVEN_SQUARES = {"cl13": (1, -1, -1, -1), "cl31": (1, 1, 1, -1)}


@pytest.mark.parametrize("algebra", sorted(EVEN_SQUARES))
def test_even_product_kernel_matches_blade_products(algebra):
    assert len(EVEN_MASKS) == len(EVEN_BLADE_NAMES)
    unit = np.eye(8)
    for i, mask_a in enumerate(EVEN_MASKS):
        for j, mask_b in enumerate(EVEN_MASKS):
            mask, s = blade_product(mask_a, mask_b, EVEN_SQUARES[algebra])
            got = even_geometric_product(EvenMultivector(algebra, unit[i]), EvenMultivector(algebra, unit[j]))
            assert got.c.tolist() == (s * unit[EVEN_MASKS.index(mask)]).tolist()


def test_derived_blade_tables_equal_their_literals():
    # The tables are built from the generator masks and the grades.
    assert cl3.BLADE_NAMES == ("1", "e1", "e2", "e3", "e12", "e13", "e23", "e123")
    assert cl3.BLADE_GRADES == (0, 1, 1, 1, 2, 2, 2, 3)
    assert EVEN_BLADE_NAMES == ("1", "e12", "e13", "e14", "e23", "e24", "e34", "e1234")
    assert _INVOLUTION_SIGNS == {
        InvolutionKind.REVERSE: (1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0),
        InvolutionKind.GRADE_INVERSE: (1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, -1.0),
        InvolutionKind.REVERSE_GRADE_INVERSE: (1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1.0),
    }
    assert all(type(v) is float for signs in _INVOLUTION_SIGNS.values() for v in signs)


def test_coefficient_views():
    x = Multivector(Signature.CL21, [1, -2.5, 0, 3, 0, 0, 7, -1])
    assert x.t == (1.0, -2.5, 0.0, 3.0, 0.0, 0.0, 7.0, -1.0)
    assert all(type(v) is float for v in x.t)
    assert Multivector(Signature.CL21, (1, -2.5, 0, 3, 0, 0, 7, -1)).t == x.t
    assert all(type(v) is float for v in Multivector(Signature.CL21, (1, 0, 0, 0, 0, 0, 0, 2)).t)
    y = x * 2.0  # built from a tuple; its array is made on first access
    for mv in (x, y):
        assert mv.c.tolist() == list(mv.t)
        assert mv.c is mv.c
        assert not mv.c.flags.writeable
        with pytest.raises(ValueError):
            mv.c[0] = 5.0


def test_overflowing_product_is_rejected():
    big = Multivector.scalar(Signature.CL30, 1e200)
    with pytest.raises(ValueError) as exc:
        big * big
    assert isinstance(exc.value, Cl3Error)
    with pytest.raises(ValueError):
        Multivector(Signature.CL30, (0.0, 0.0, math.nan, 0.0, 0.0, 0.0, 0.0, 0.0))
    # Huge but finite coefficients are accepted.
    assert Multivector(Signature.CL30, (1e308,) * 8).t == (1e308,) * 8


_CORRUPT_KERNEL = """
from cl3 import Multivector, Signature, determinant
from cl3.algebra import _PRODUCTS

kernel = _PRODUCTS[Signature.CL30]

def corrupt(a, b):
    out = list(kernel(a, b))
    out[3] += 0.5 * a[1] * b[4]
    return tuple(out)

_PRODUCTS[Signature.CL30] = corrupt
print(determinant(Multivector(Signature.CL30, (0.3, 1, -0.5, 0.2, 0.7, -0.1, 0.4, 0.9))))
"""


def test_residue_check_survives_python_O():
    # A corrupted product table must still be caught when -O strips asserts.
    env = dict(os.environ, PYTHONPATH=str(Path(cl3.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_KERNEL], capture_output=True, text=True, env=env
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert "AssertionError: non-scalar residue" in proc.stderr


def test_source_has_no_assert_statements():
    # python -O strips assert statements; every check in the library raises.
    for path in sorted(Path(cl3.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert on lines {found}"
