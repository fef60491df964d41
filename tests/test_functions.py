"""Exact trig/hyperbolic functions, their identities, and normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cl3.exponential as exponential_module
import cl3.functions as functions_module
from cl3 import (
    Multivector,
    NonFiniteError,
    NonInvertibleError,
    NormUndefinedError,
    SeriesFamily,
    SeriesSpec,
    Signature,
    determinant,
    geometric_product,
    hyperbolic_exact,
    inverse,
    normalize,
    ratio_exact,
    series_eval,
    trig_exact,
)
from cl3.exponential import _SQUARES
from conftest import ALL_SIGS, bench_reference, max_err, rand_mv
from reference_values import EXACT, REF_COEFFS, REF_SCALE, SERIES, TABLE_TOL


def _ref_mv():
    return Multivector(Signature.CL30, np.array(REF_COEFFS) / REF_SCALE)


@pytest.mark.parametrize("name", ["sinh", "cosh", "tanh", "sin", "cos", "tan"])
def test_known_value_tables(name):
    x = _ref_mv()
    if name in ("sinh", "cosh"):
        got = hyperbolic_exact(x, name)
    elif name in ("sin", "cos"):
        got = trig_exact(x, name)
    else:
        got = ratio_exact(x, name)
    assert max_err(got, EXACT[name]) < TABLE_TOL


@pytest.mark.parametrize("key", sorted(SERIES, key=str))
def test_known_series_tables(key):
    name, order = key
    fam = SeriesFamily[name.upper()]
    got = series_eval(_ref_mv(), SeriesSpec(fam, order))
    assert max_err(got, SERIES[key]) < TABLE_TOL


def test_values_at_zero():
    for sig in ALL_SIGS:
        zero = Multivector.zero(sig)
        assert max_err(hyperbolic_exact(zero, "cosh"), np.eye(8)[0]) == 0.0
        assert max_err(hyperbolic_exact(zero, "sinh"), np.zeros(8)) == 0.0
        assert max_err(ratio_exact(zero, "tanh"), np.zeros(8)) == 0.0
        assert max_err(trig_exact(zero, "cos"), np.eye(8)[0]) == 0.0
        assert max_err(trig_exact(zero, "sin"), np.zeros(8)) == 0.0
        assert max_err(ratio_exact(zero, "tan"), np.zeros(8)) == 0.0


def _from_halves(sig, d_plus, d_minus, a0=0.3, a123=-0.2):
    """The multivector of CL03/CL21 whose vector + bivector part is d+ on
    the half (1 + e123)/2 and d- on (1 - e123)/2."""
    s1, s2, s3 = _SQUARES[sig]
    (p1, p2, p3), (m1, m2, m3) = d_plus, d_minus
    return Multivector(sig, (
        a0, (p1 + m1) / 2, (p2 + m2) / 2, (p3 + m3) / 2,
        (p3 - m3) / (2 * s3), (m2 - p2) / (2 * s2), (p1 - m1) / (2 * s1), a123,
    ))


# A vector of square zero on a half: only the zero vector in CL03, and
# (3, 4, 5)/8 (exact in binary) under CL21's squares (1, 1, -1).
_NULL_HALF = {Signature.CL03: (0.0, 0.0, 0.0), Signature.CL21: (0.375, 0.5, 0.625)}


@pytest.mark.parametrize("sig", [Signature.CL03, Signature.CL21])
def test_trig_on_split_algebras_matches_the_oracle(sig):
    ref = bench_reference()
    rng = np.random.default_rng(31)
    null, d = np.array(_NULL_HALF[sig]), rng.uniform(-1.0, 1.0, 3)
    cases = {
        "generic": Multivector(sig, rng.uniform(-2.0, 2.0, 8)),
        "plus-degenerate": _from_halves(sig, null, d),
        "near-degenerate": _from_halves(sig, null + 1e-9, d),
        "both-degenerate": _from_halves(sig, null, -null),
    }
    for label, x in cases.items():
        for which in ("sin", "cos", "tan"):
            got = ratio_exact(x, which) if which == "tan" else trig_exact(x, which)
            digits = ref.oracle_digits(got.t, ref.oracle_eval(sig.name.lower(), which, x.t))
            assert digits >= 13.0, (label, which, digits)


@pytest.mark.parametrize("sig,coeffs", [
    (Signature.CL30, (0, 0, 0, 0, 0, 0, 0, 800)),   # sin(800 i) on the complex center
    (Signature.CL12, (0, 0, 800, 0, 0, 0, 0, 0)),   # C(-z) = cosh 800, e2^2 = -1
    (Signature.CL03, (0, 800, 0, 0, 0, 0, 0, 0)),   # the same on both real halves
    (Signature.CL21, (1e308, 0, 0, 0, 0, 0, 0, 1e308)),  # c+ = a0 + a123 overflows
])
def test_trig_overflow_is_a_typed_error(sig, coeffs):
    x = Multivector(sig, coeffs)
    for which in ("sin", "cos"):
        with pytest.raises(NonFiniteError, match=f"^{which} of .* overflows double precision$"):
            trig_exact(x, which)
    with pytest.raises(NonFiniteError):
        ratio_exact(x, "tan")


def test_small_cl12_sine_keeps_full_precision():
    # Two exponentials e^{-/+ e123 x} cancel here (14.40 digits); sin c and
    # cos c on the center do not.
    ref = bench_reference()
    x = (-1.94e-3, 3.08e-3, 3.42e-3, -3.13e-3, -1.21e-3, 3.44e-3, 3.23e-3, 1.18e-3)
    got = trig_exact(Multivector(Signature.CL12, x), "sin")
    assert ref.oracle_digits(got.t, ref.oracle_eval("cl12", "sin", x)) >= 15.5


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_hyperbolic_functions_match_the_oracle(sig):
    # e^x - e^-x cancels for small x (about 8 digits at 1e-8); the sinh row does not.
    ref = bench_reference()
    rng = np.random.default_rng(13)
    for scale in (1e-8, 1e-3, 1.0):
        x = Multivector(sig, rng.uniform(-1.0, 1.0, 8) * scale)
        for which, floor in (("sinh", 14.5), ("cosh", 14.5), ("tanh", 14.0)):
            got = ratio_exact(x, which) if which == "tanh" else hyperbolic_exact(x, which)
            digits = ref.oracle_digits(got.t, ref.oracle_eval(sig.name.lower(), which, x.t))
            assert digits >= floor, (scale, which, digits)


@pytest.mark.parametrize("sig", [Signature.CL03, Signature.CL21])
def test_large_scalar_hyperbolic_keeps_full_precision(sig):
    # c+/- = a0 +/- a123 rounds; without its rounding error sinh c+/- keeps 14.55 digits.
    ref = bench_reference()
    x = (-40.1, 0.31, -0.52, 0.27, 0.44, -0.18, 0.61, 3.3)
    for which in ("sinh", "cosh"):
        got = hyperbolic_exact(Multivector(sig, x), which)
        assert ref.oracle_digits(got.t, ref.oracle_eval(sig.name.lower(), which, x)) >= 15.5, which


@pytest.mark.parametrize("sig,coeffs", [
    (Signature.CL30, (800, 0, 0, 0, 0, 0, 0, 0)),   # sinh(800) on the complex center
    (Signature.CL12, (0, 800, 0, 0, 0, 0, 0, 0)),   # C(z) = cosh 800, e1^2 = +1
    (Signature.CL03, (800, 0, 0, 0, 0, 0, 0, 0)),   # the same on both real halves
    (Signature.CL21, (1e308, 0, 0, 0, 0, 0, 0, 1e308)),  # c+ = a0 + a123 overflows
])
def test_hyperbolic_overflow_is_a_typed_error(sig, coeffs):
    x = Multivector(sig, coeffs)
    for which in ("sinh", "cosh"):
        with pytest.raises(NonFiniteError, match=f"^{which} of .* overflows double precision$"):
            hyperbolic_exact(x, which)
    with pytest.raises(NonFiniteError):
        ratio_exact(x, "tanh")


@pytest.mark.parametrize("sig", ALL_SIGS)
@pytest.mark.parametrize("a0", [180.0, 400.0, 700.0])
def test_tanh_past_the_determinant_overflow_of_cosh(sig, a0):
    # det(cosh x) ~ cosh^4 a0 overflows from a0 ~ 180; the rows themselves do not.
    ref = bench_reference()
    x = (a0, 0.1, 0, 0, 0, 0, 0, 0)
    got = ratio_exact(Multivector(sig, x), "tanh")
    assert ref.oracle_digits(got.t, ref.oracle_eval(sig.name.lower(), "tanh", x)) >= 15.0


@pytest.mark.parametrize("sig", [Signature.CL30, Signature.CL12])
@pytest.mark.parametrize("a123", [180.0, -400.0, 700.0])
def test_tan_past_the_determinant_overflow_of_cos(sig, a123):
    # tan(a e123) = e123 tanh a where e123^2 = -1, so it tends to sign(a) e123.
    got = ratio_exact(Multivector(sig, (0, 0, 0, 0, 0, 0, 0, a123)), "tan")
    want = (0, 0, 0, 0, 0, 0, 0, math.copysign(1.0, a123))
    assert max(abs(g - w) for g, w in zip(got.t, want)) <= 4.5e-16


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_sinh_is_finite_where_only_e_to_the_x_overflows(sig):
    # e^710.2 overflows double precision; sinh 710.2 = 1.364e308 does not.
    got = hyperbolic_exact(Multivector(sig, (710.2, 0, 0, 0, 0, 0, 0, 0)), "sinh")
    assert got.t[0] == pytest.approx(math.sinh(710.2), rel=1e-15)


def test_no_function_calls_exp(rng, monkeypatch):
    # Each function is a row of the center evaluator or a quotient of two rows.
    def no_exp(x):
        raise AssertionError(f"exp({x!r}) called")

    assert not hasattr(functions_module, "exp")
    monkeypatch.setattr(exponential_module, "exp", no_exp)
    for sig in ALL_SIGS:
        monkeypatch.setitem(exponential_module._CENTER_FUNCTIONS["exp"], sig, no_exp)
    for sig in ALL_SIGS:
        x = rand_mv(rng, sig)
        for fn, names in ((trig_exact, ("sin", "cos")), (hyperbolic_exact, ("sinh", "cosh")),
                          (ratio_exact, ("tan", "tanh"))):
            for which in names:
                fn(x, which)


def test_ratio_is_bit_identical_to_explicit_quotient(rng):
    pairs = [("tanh", hyperbolic_exact, "sinh", "cosh"), ("tan", trig_exact, "sin", "cos")]
    for sig in ALL_SIGS:
        for _ in range(20):
            x = rand_mv(rng, sig, 2.0)
            for which, fn, num, den in pairs:
                want = geometric_product(fn(x, num), inverse(fn(x, den)).inverse)
                got = ratio_exact(x, which)
                assert [v.hex() for v in got.t] == [v.hex() for v in want.t], (sig, which)


def test_ratio_propagates_non_invertible():
    # cos(pi/4 (1 + e1)) = (1 - e1)/2, a null element with zero determinant.
    x = Multivector(Signature.CL30, [math.pi / 4, math.pi / 4, 0, 0, 0, 0, 0, 0])
    with pytest.raises(NonInvertibleError):
        ratio_exact(x, "tan")


def test_bad_which_arguments():
    x = Multivector.zero(Signature.CL30)
    with pytest.raises(ValueError):
        trig_exact(x, "tan")
    with pytest.raises(ValueError):
        hyperbolic_exact(x, "sin")
    with pytest.raises(ValueError):
        ratio_exact(x, "sinh")


def test_pythagorean_identities(rng):
    one = np.eye(8)[0]
    for sig in ALL_SIGS:
        for _ in range(25):
            x = rand_mv(rng, sig)
            ch = hyperbolic_exact(x, "cosh")
            sh = hyperbolic_exact(x, "sinh")
            lhs = geometric_product(ch, ch) - geometric_product(sh, sh)
            assert max_err(lhs, one) <= 1e-10
            c = trig_exact(x, "cos")
            s = trig_exact(x, "sin")
            lhs = geometric_product(c, c) + geometric_product(s, s)
            assert max_err(lhs, one) <= 1e-10


@given(sig=st.sampled_from(ALL_SIGS),
       coeffs=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=8, max_size=8))
@settings(max_examples=80, deadline=None)
def test_sin_squared_plus_cos_squared_is_one(sig, coeffs):
    x = Multivector(sig, coeffs)
    c, s = trig_exact(x, "cos"), trig_exact(x, "sin")
    lhs = geometric_product(c, c) + geometric_product(s, s)
    # Relative to the size of the terms summed: sin and cos grow like e^|x|.
    size = max(1.0, *map(abs, geometric_product(c, c).t), *map(abs, geometric_product(s, s).t))
    assert max_err(lhs, np.eye(8)[0]) <= 1e-13 * size


def test_double_angle(rng):
    for sig in ALL_SIGS:
        for _ in range(25):
            x = rand_mv(rng, sig)
            s, c = trig_exact(x, "sin"), trig_exact(x, "cos")
            assert max_err(trig_exact(x * 2.0, "sin"), geometric_product(s, c) * 2.0) <= 1e-10
            want = geometric_product(c, c) - geometric_product(s, s)
            assert max_err(trig_exact(x * 2.0, "cos"), want) <= 1e-10


def test_function_commutation(rng):
    for sig in ALL_SIGS:
        x = rand_mv(rng, sig)
        sh, ch = hyperbolic_exact(x, "sinh"), hyperbolic_exact(x, "cosh")
        assert max_err(geometric_product(sh, ch), geometric_product(ch, sh)) <= 1e-12
        s, c = trig_exact(x, "sin"), trig_exact(x, "cos")
        assert max_err(geometric_product(s, c), geometric_product(c, s)) <= 1e-12


def test_tanh_order_independence(rng):
    from cl3 import inverse

    for sig in ALL_SIGS:
        x = rand_mv(rng, sig)
        sh = hyperbolic_exact(x, "sinh")
        ch_inv = inverse(hyperbolic_exact(x, "cosh")).inverse
        left = geometric_product(sh, ch_inv)
        right = geometric_product(ch_inv, sh)
        assert max_err(left, right) <= 1e-10
        assert max_err(ratio_exact(x, "tanh"), left) <= 1e-12


def test_series_error_is_monotone_in_order(rng):
    for sig in ALL_SIGS:
        x = rand_mv(rng, sig)
        try:
            x, _ = normalize(x, "ceil")
        except NormUndefinedError:
            pass
        for which, fam in (("sinh", SeriesFamily.SINH), ("cosh", SeriesFamily.COSH)):
            target = hyperbolic_exact(x, which)
            errs = [
                max_err(series_eval(x, SeriesSpec(fam, n)), target)
                for n in range(2, 21)
            ]
            for a, b in zip(errs, errs[1:]):
                assert b <= a + 1e-15


def test_secant_series_inverts_cosh(rng):
    one = np.eye(8)[0]
    for sig in ALL_SIGS:
        x = rand_mv(rng, sig, scale=0.2)
        ch = hyperbolic_exact(x, "cosh")
        errs = []
        for n in (4, 8, 12, 16, 20, 24):
            sech = series_eval(x, SeriesSpec(SeriesFamily.SECH_EULER, n))
            errs.append(max_err(geometric_product(sech, ch), one))
        assert errs[-1] < 1e-12
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-15


def test_normalize_reference_mv():
    x = Multivector(Signature.CL30, REF_COEFFS)
    scaled, scale = normalize(x, "ceil")
    assert scale == 17.0
    assert scaled == Multivector(Signature.CL30, np.array(REF_COEFFS) / 17.0)


def test_normalize_small_norm_is_identity():
    x = Multivector(Signature.CL30, np.array(REF_COEFFS) * 0.01)
    scaled, scale = normalize(x, "ceil")
    assert scale == 1.0
    assert scaled is x


def test_normalize_exact_and_factor(rng):
    x = Multivector(Signature.CL30, REF_COEFFS)
    scaled, scale = normalize(x, "exact")
    assert abs(scale - 71129.0 ** 0.25) < 1e-10
    assert abs(determinant(scaled) - 1.0) < 1e-10
    for policy in (4.0, 4, np.int64(4), np.float64(4.0)):
        scaled, scale = normalize(x, policy)
        assert type(scale) is float and scale == 4.0
        assert scaled == x * 0.25
    for policy in (-2.0, 0, 0.0, math.inf, -math.inf, math.nan, np.int64(-3)):
        with pytest.raises(ValueError, match=f"scale factor must be positive and finite, got {policy}"):
            normalize(x, policy)
    for policy in ("nearest", "4", True, False):
        with pytest.raises(ValueError, match="policy must be 'ceil', 'exact' or a number"):
            normalize(x, policy)


def test_normalize_determinant_shrinks(rng):
    for sig in (Signature.CL30, Signature.CL03):
        for _ in range(20):
            x = rand_mv(rng, sig, scale=3.0)
            det = determinant(x)
            scaled, scale = normalize(x, "ceil")
            assert abs(determinant(scaled) - det / scale**4) <= 1e-9 * max(1.0, abs(det))
            assert determinant(scaled) <= 1.0 + 1e-12


def test_normalize_negative_determinant_propagates():
    x = Multivector(Signature.CL21, [1, 1, 0, 1, 0, 0, 1, 0])
    with pytest.raises(NormUndefinedError):
        normalize(x, "ceil")


def test_normalize_exact_zero_determinant_errors():
    from cl3 import blade

    x = Multivector.scalar(Signature.CL30, 1.0) + blade(Signature.CL30, "e1")
    with pytest.raises(NormUndefinedError):
        normalize(x, "exact")
