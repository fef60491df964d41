"""Series coefficient families and the Horner evaluator."""

import functools
import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from cl3 import (
    MAX_TABLE_ORDER,
    Multivector,
    NonFiniteError,
    SeriesFamily,
    SeriesOrderError,
    SeriesSpec,
    Signature,
    bernoulli_numbers,
    euler_numbers,
    series_eval,
)
from cl3 import algebra, series
from cl3.series import _term_table
from conftest import ALL_SIGS, bench_reference, rand_mv


def test_bernoulli_values():
    b = bernoulli_numbers(12)
    assert b[0] == 1
    assert b[1] == Fraction(-1, 2)
    assert b[2] == Fraction(1, 6)
    assert b[3] == 0
    assert b[4] == Fraction(-1, 30)
    assert b[6] == Fraction(1, 42)
    assert b[8] == Fraction(-1, 30)
    assert b[10] == Fraction(5, 66)
    assert b[12] == Fraction(-691, 2730)


def test_euler_values():
    e = euler_numbers(10)
    assert [e[i] for i in range(0, 11, 2)] == [1, -1, 5, -61, 1385, -50521]
    assert all(e[i] == 0 for i in range(1, 10, 2))


def test_tanh_coefficients_match_known_series():
    powers, coeffs = _term_table(SeriesFamily.TANH, 9)
    assert powers == (1, 3, 5, 7, 9)
    want = [1.0, -1.0 / 3.0, 2.0 / 15.0, -17.0 / 315.0, 62.0 / 2835.0]
    assert np.allclose(coeffs, want, rtol=0, atol=1e-16)


def test_tan_coefficients_flip_signs():
    _, coeffs = _term_table(SeriesFamily.TAN, 7)
    assert np.allclose(coeffs, [1.0, 1.0 / 3.0, 2.0 / 15.0, 17.0 / 315.0], rtol=0, atol=1e-16)


def test_secant_family_coefficients():
    _, sech = _term_table(SeriesFamily.SECH_EULER, 6)
    assert np.allclose(sech, [1.0, -0.5, 5.0 / 24.0, -61.0 / 720.0], rtol=0, atol=1e-16)
    _, sec = _term_table(SeriesFamily.SEC_EULER, 6)
    assert np.allclose(sec, [1.0, 0.5, 5.0 / 24.0, 61.0 / 720.0], rtol=0, atol=1e-16)


def test_order_semantics_on_scalars():
    # Order n keeps every term of degree <= n, so the order-6 odd series has
    # three terms and the order-6 even series four.
    s = 0.37
    x = Multivector.scalar(Signature.CL30, s)
    got = series_eval(x, SeriesSpec(SeriesFamily.SINH, 6)).c[0]
    assert abs(got - (s + s**3 / 6 + s**5 / 120)) < 1e-15
    got = series_eval(x, SeriesSpec(SeriesFamily.COSH, 6)).c[0]
    assert abs(got - (1 + s**2 / 2 + s**4 / 24 + s**6 / 720)) < 1e-15
    got = series_eval(x, SeriesSpec(SeriesFamily.EXP, 3)).c[0]
    assert abs(got - (1 + s + s**2 / 2 + s**3 / 6)) < 1e-15


def test_scalar_series_converge_to_math_functions():
    s = 0.5
    x = Multivector.scalar(Signature.CL21, s)
    pairs = [
        (SeriesFamily.SIN, math.sin), (SeriesFamily.COS, math.cos),
        (SeriesFamily.SINH, math.sinh), (SeriesFamily.COSH, math.cosh),
        (SeriesFamily.TAN, math.tan), (SeriesFamily.TANH, math.tanh),
        (SeriesFamily.EXP, math.exp),
    ]
    for family, fn in pairs:
        got = series_eval(x, SeriesSpec(family, 30)).c[0]
        assert abs(got - fn(s)) < 1e-12, family


def test_table_order_cap_only_for_tabulated_families():
    x = Multivector.scalar(Signature.CL30, 0.1)
    with pytest.raises(SeriesOrderError) as exc:
        series_eval(x, SeriesSpec(SeriesFamily.TANH, MAX_TABLE_ORDER + 1))
    assert str(MAX_TABLE_ORDER) in str(exc.value)
    series_eval(x, SeriesSpec(SeriesFamily.EXP, MAX_TABLE_ORDER + 10))  # no cap


def test_order_must_be_positive():
    for bad in (0, -1):
        with pytest.raises(ValueError, match="series order must be at least 1"):
            SeriesSpec(SeriesFamily.EXP, bad)


def test_order_must_be_an_integer():
    # The row cache is keyed by (family, order), and 20.0 == 20: a float order
    # must fail at construction whether or not order 20 is cached.
    x = Multivector(Signature.CL30, (0.1, 0.2, -0.3, 0.1, 0.2, 0.1, -0.2, 0.3))
    series_eval(x, SeriesSpec(SeriesFamily.EXP, 20))
    for bad in (20.0, 2.5):
        with pytest.raises(TypeError):
            SeriesSpec(SeriesFamily.EXP, bad)
    for bad in (True, False):
        with pytest.raises(ValueError, match=f"series order must be an integer, got {bad}"):
            SeriesSpec(SeriesFamily.EXP, bad)
    spec = SeriesSpec(SeriesFamily.EXP, np.int64(20))
    assert type(spec.terms) is int and spec == (SeriesFamily.EXP, 20)
    assert series_eval(x, spec) == series_eval(x, SeriesSpec(SeriesFamily.EXP, 20))


def test_family_must_be_a_member():
    for bad in ("tan", "exp", "sinh"):
        with pytest.raises(ValueError, match=r"series family must be a SeriesFamily member \(EXP, SIN, .*SECH_EULER\)"):
            SeriesSpec(bad, 7)


def test_last_term_delta_reporting():
    s = 0.5
    x = Multivector.scalar(Signature.CL30, s)
    _, delta = series_eval(x, SeriesSpec(SeriesFamily.SINH, 7), return_last_term=True)
    assert abs(delta - s**7 / math.factorial(7)) < 1e-18
    value_only = series_eval(x, SeriesSpec(SeriesFamily.SINH, 7))
    assert isinstance(value_only, Multivector)


def _series_quotient(num, den):
    """Exact coefficients of the power series num / den (den[0] != 0)."""
    q = []
    for p in range(len(num)):
        q.append((num[p] - sum(q[j] * den[p - j] for j in range(p))) / den[0])
    return q


@functools.cache
def _hyperbolic_quotients():
    """tanh = sinh / cosh and sech = 1 / cosh up to x^(MAX_TABLE_ORDER + 1), exactly."""
    top = MAX_TABLE_ORDER + 1
    sinh = [Fraction(p % 2, math.factorial(p)) for p in range(top + 1)]
    cosh = [Fraction(1 - p % 2, math.factorial(p)) for p in range(top + 1)]
    one = [Fraction(int(p == 0)) for p in range(top + 1)]
    return {"tanh": _series_quotient(sinh, cosh), "sech": _series_quotient(one, cosh)}


def _exact_coefficient(family, p):
    """The x^p coefficient of ``family`` as an exact fraction."""
    trig = {"sin": "sinh", "cos": "cosh", "tan": "tanh", "sec": "sech"}
    hyper = trig.get(family.value, family.value)
    if hyper in ("tanh", "sech"):
        c = _hyperbolic_quotients()[hyper][p]
    else:
        c = Fraction(1, math.factorial(p))
    return -c if hyper != family.value and p // 2 % 2 else c


def test_bernoulli_and_euler_numbers_match_series_quotients():
    # The tanh coefficient of x^(n-1) is 2^n (2^n - 1) B_n / n!, and the sech
    # coefficient of x^p is E_p / p!.
    q = _hyperbolic_quotients()
    bern = bernoulli_numbers(MAX_TABLE_ORDER + 1)
    assert bern[:2] == (1, Fraction(-1, 2))
    for n in range(2, MAX_TABLE_ORDER + 2):
        assert bern[n] == q["tanh"][n - 1] * math.factorial(n) / (2**n * (2**n - 1)), n
    want = tuple(c * math.factorial(p) for p, c in enumerate(q["sech"][: MAX_TABLE_ORDER + 1]))
    assert euler_numbers(MAX_TABLE_ORDER) == want


def _series_powers(family, order):
    """Every power of degree <= order in the series of ``family``."""
    if family.value in ("sinh", "sin", "tanh", "tan"):
        return tuple(range(1, order + 1, 2))
    if family is SeriesFamily.EXP:
        return tuple(range(order + 1))
    return tuple(range(0, order + 1, 2))


def test_term_table_rounds_exact_fractions():
    for family in SeriesFamily:
        capped = family.value in ("tan", "tanh", "sec", "sech")
        for order in range(1, (MAX_TABLE_ORDER if capped else 200) + 1):
            # The table ends at its last nonzero coefficient: 1 / p! rounds to 0.0 from p = 178 on.
            want_powers = tuple(p for p in _series_powers(family, order) if float(_exact_coefficient(family, p)))
            powers, coeffs = _term_table(family, order)
            assert powers == want_powers, (family, order)
            # By float.hex, so that the sign of each coefficient counts too.
            want = [float(_exact_coefficient(family, p)).hex() for p in powers]
            assert [c.hex() for c in coeffs] == want, (family, order)


def test_long_term_table_stops_forming_factorials(monkeypatch):
    # 1 / p! rounds to 0.0 from p = 178 on, so order 2000 has order 200's table.
    calls, factorial = [], math.factorial
    monkeypatch.setattr(math, "factorial", lambda p: calls.append(p) or factorial(p))
    for family in (SeriesFamily.EXP, SeriesFamily.SIN, SeriesFamily.COS, SeriesFamily.SINH, SeriesFamily.COSH):
        calls.clear()
        table = _term_table(family, 2000)
        assert len(calls) <= 180, family
        assert table == _term_table(family, 200), family
        assert table[0][-1] == (176 if family.value in ("cos", "cosh") else 177), family


def test_order_past_the_table_costs_no_more(rng):
    # The order-10**6 row is the order-177 row, bar its N and r: same Horner, same value.
    assert len(series._row(SeriesFamily.EXP, 10**6)[0]) <= 177
    for sig in ALL_SIGS:
        x = rand_mv(rng, sig, 0.5)
        for family in (SeriesFamily.EXP, SeriesFamily.SIN, SeriesFamily.COS, SeriesFamily.SINH, SeriesFamily.COSH):
            assert series_eval(x, SeriesSpec(family, 10**6)) == series_eval(x, SeriesSpec(family, 177))
            _, delta = series_eval(x, SeriesSpec(family, 10**6), return_last_term=True)
            assert delta == 0.0, (sig, family)


def _exact_powers(x, top):
    """x^0 .. x^top e_0 at the oracle's precision, on ``bench/reference.py``'s
    left-regular matrix of ``x``."""
    ref = bench_reference()
    with mp.workdps(ref.ORACLE_DPS):
        lx = ref._mp_left(x.sig.name.lower(), [mp.mpf(v) for v in x.t])
        rows = [[lx[i, j] for j in range(8)] for i in range(8)]
        out = [[mp.mpf(1)] + [mp.mpf(0)] * 7]
        for _ in range(top):
            out.append([mp.fdot(row, out[-1]) for row in rows])
    return out


def _exact_series(xp, spec):
    """The float-coefficient polynomial of ``spec`` on exact powers ``xp``:
    its value, the summed term size sum |c_p| max|x^p|, and |c_N x^N| with
    the exact rational c_N (the float one is 0.0 from N = 178 on)."""
    powers, coeffs = _term_table(spec.family, spec.terms)
    n = _series_powers(spec.family, spec.terms)[-1]
    with mp.workdps(bench_reference().ORACLE_DPS):
        sizes = [abs(mp.mpf(c)) * max(map(abs, xp[p])) for p, c in zip(powers, coeffs)]
        value = [mp.fsum(mp.mpf(c) * xp[p][i] for p, c in zip(powers, coeffs)) for i in range(8)]
        cn = _exact_coefficient(spec.family, n)
        last = abs(mp.mpf(cn.numerator) / cn.denominator) * max(map(abs, xp[n]))
        return value, mp.fsum(sizes), last


def _near_degenerate(a0, a123, size):
    """A large center a0 + a123·e123 plus a y of the given size."""
    return (a0, size, -0.6 * size, 0.8 * size, 0.3 * size, -0.9 * size, 0.5 * size, a123)


# Inputs on which a reassociated evaluator loses accuracy: a null y (z = 0 but
# y != 0) on a small center, and a large center with a nearly degenerate y.
_HARD_INPUTS = {
    Signature.CL30: [(0.05, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, -0.02), _near_degenerate(7.5, 0.4, 3e-3),
                     _near_degenerate(-11.0, 2.0, 4e-8)],
    Signature.CL12: [(-0.04, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.03), _near_degenerate(-3.5, 1.2, 2e-2),
                     _near_degenerate(9.0, -0.3, 6e-6)],
    Signature.CL03: [_near_degenerate(12.0, 0.5, 1e-9), _near_degenerate(-5.0, 1.5, 7e-3)],
    Signature.CL21: [(0.03, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.05), _near_degenerate(4.0, -0.8, 5e-5),
                     _near_degenerate(-8.0, 0.2, 1e-2)],
}


def test_series_eval_matches_exact_polynomial(rng):
    big_last = 0
    for sig in ALL_SIGS:
        xs = [rand_mv(rng, sig, 0.5) for _ in range(3)]
        xs += [Multivector(sig, (0.0, 0.3, -0.2, 0.1, 0.0, 0.0, 0.0, 0.0)), Multivector.scalar(sig, -0.7)]
        xs += [Multivector(sig, t) for t in _HARD_INPUTS[sig]]
        for x in xs:
            xp = _exact_powers(x, 200)
            for family in SeriesFamily:
                for order in (1, 2, 20, 40) + ((61, 200) if family is SeriesFamily.EXP else ()):
                    spec = SeriesSpec(family, order)
                    want, scale, last = _exact_series(xp, spec)
                    got, delta = series_eval(x, spec, return_last_term=True)
                    assert series_eval(x, spec) == got
                    err = max(abs(g - float(w)) for g, w in zip(got.t, want)) / float(scale)
                    assert err <= 1e-14, (sig, family, order, err)
                    last = float(last)
                    if order <= 61:
                        assert abs(delta - last) <= 1e-13 * last, (sig, family, order)
                    elif last >= sys.float_info.min:
                        # From N = 171 on, r comes from log N!, which costs about one more digit.
                        assert abs(delta - last) <= 2e-13 * last, (sig, family, order)
                        big_last += 1
                    else:
                        assert delta < sys.float_info.min, (sig, family, order, delta)
    # The large-center inputs keep a normal c_200 x^200.
    assert big_last >= 8


@pytest.mark.parametrize("sig", ALL_SIGS, ids=lambda s: s.name)
def test_small_slots_are_componentwise_accurate(sig):
    # A small e123 slot, then a small scalar slot: a full geometric product
    # per term loses them to rounding in its other slots (up to 8e-9 relative).
    for coeffs in ((0.3, 0.1, 0.2, -0.1, 0.0, 0.0, 0.0, 1e-8), (1e-8, 0.0, 0.0, 0.0, 0.1, 0.2, -0.3, 0.2)):
        x = Multivector(sig, coeffs)
        xp = _exact_powers(x, 20)
        for family in (SeriesFamily.EXP, SeriesFamily.COSH, SeriesFamily.TANH):
            spec = SeriesSpec(family, 20)
            want, _, _ = _exact_series(xp, spec)
            got = series_eval(x, spec)
            for i, (g, w) in enumerate(zip(got.t, want)):
                w = float(w)
                if w == 0.0:
                    assert g == 0.0, (family, i)
                else:
                    assert abs(g - w) <= 1e-13 * abs(w), (family, i, g, w)


def test_series_eval_makes_a_fixed_number_of_kernel_calls(monkeypatch):
    # y² and each G·y take a restricted kernel; the full product is never called.
    calls, full = [], []

    def counted(kernel, log):
        def prod(a, b):
            log.append(1)
            return kernel(a, b)
        return prod

    for name in ("_SQUARE_Y", "_CENTER_Y"):
        kernels = getattr(series, name)
        monkeypatch.setattr(series, name, {sig: counted(kernels[sig], calls) for sig in Signature})
    for sig in Signature:
        monkeypatch.setitem(algebra._PRODUCTS, sig, counted(algebra._PRODUCTS[sig], full))
    # Both center bodies: complex numbers in CL30/CL12, (s, i) pairs in CL03/CL21.
    for sig in Signature:
        x = Multivector(sig, (0.1, 0.2, -0.3, 0.1, 0.2, 0.1, -0.2, 0.3))
        for family in (SeriesFamily.EXP, SeriesFamily.TANH, SeriesFamily.COSH):
            for order in (1, 20, 40, 60):
                for last, want in ((False, 2), (True, 3)):
                    calls.clear()
                    series_eval(x, SeriesSpec(family, order), return_last_term=last)
                    assert len(calls) == want, (sig, family, order, last)
    assert not full


def test_last_term_overflow_is_a_typed_error():
    # 1e8^40 overflows, but the last term c_40 * 1e8^40 = 1e320/40! does not:
    # it is powered from r * x with r = c_40^(1/40), so both results are finite.
    x = Multivector.scalar(Signature.CL30, 1e8)
    value, delta = series_eval(x, SeriesSpec(SeriesFamily.EXP, 40), return_last_term=True)
    assert all(map(math.isfinite, value.t))
    want = float(Fraction(10**320, math.factorial(40)))
    assert abs(delta - want) <= 1e-12 * want
    # sum 1e10^p / p! up to p = 40 is about 1e352: the value itself overflows.
    x = Multivector.scalar(Signature.CL30, 1e10)
    with pytest.raises(NonFiniteError, match="multivector coefficients must be finite"):
        series_eval(x, SeriesSpec(SeriesFamily.EXP, 40), return_last_term=True)


def test_last_term_delta_past_the_float_range_of_its_coefficient():
    # 1/200! underflows to 0.0 as a float, but c_200 * 300^200 is about 3.4e120:
    # r = |c_N|^(1/N) comes from log N! there, so the delta stays nonzero.
    x = Multivector.scalar(Signature.CL30, 300.0)
    _, delta = series_eval(x, SeriesSpec(SeriesFamily.EXP, 200), return_last_term=True)
    want = float(Fraction(300**200, math.factorial(200)))
    assert abs(delta - want) <= 1e-12 * want
