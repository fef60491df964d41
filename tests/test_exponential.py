"""Closed-form exponential: snapshots, properties, degenerate branches."""

import hashlib
import json
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from cl3 import (
    ExpBranch,
    MixedGradeInputError,
    Multivector,
    NonFiniteError,
    SeriesFamily,
    SeriesSpec,
    Signature,
    blade,
    exp,
    exp_factors,
    exp_particular,
    geometric_product,
    grade_select,
    normalize,
    series_eval,
    sign_table,
)
from cl3.cli import main
from conftest import ALL_SIGS, cl03_degenerate, max_err, null_vector_bivector, rand_mv
from reference_values import EXP_OF_REF, REF_COEFFS, REF_SCALE, TABLE_TOL


def series_exp(x, order=30):
    return series_eval(x, SeriesSpec(SeriesFamily.EXP, order))


def _expanded_cl30_cl12(x, u):
    """Verbatim per-sign transcription of the CL30/CL12 expansion.

    The library evaluates CL30 and CL12 with one body on the complex
    center (e123 = i, C and S of z = (a + A)^2, products through the
    compiled kernel); this transcription resolves every +/- pair by hand
    (upper signs u=+1, lower u=-1) so a slip in that body cannot hide.
    """
    a0, a1, a2, a3, a12, a13, a23, a123 = (float(v) for v in x.c)
    f = exp_factors(x)
    ap, am, cn = f.a_plus, f.a_minus, f.c_norm
    cp, sp = math.cosh(ap), math.sinh(ap)
    cm, sm = math.cos(am), math.sin(am)
    ca, sa = math.cos(a123), math.sin(a123)

    b0 = ca * cm * cp - sa * sm * sp
    b123 = sa * cm * cp + ca * sm * sp
    b1 = (cp * sm * ((am * a1 - ap * a23) * ca - (ap * a1 + am * a23) * sa)
          + sp * cm * ((ap * a1 + am * a23) * ca + (am * a1 - ap * a23) * sa))
    b23 = (cp * sm * ((ap * a1 + am * a23) * ca + (am * a1 - ap * a23) * sa)
           + sp * cm * ((-am * a1 + ap * a23) * ca + (ap * a1 + am * a23) * sa))
    if u > 0:
        b2 = (cp * sm * ((am * a2 + ap * a13) * ca + (-ap * a2 + am * a13) * sa)
              + sp * cm * ((ap * a2 - am * a13) * ca + (am * a2 + ap * a13) * sa))
        b3 = (cp * sm * ((am * a3 - ap * a12) * ca - (ap * a3 + am * a12) * sa)
              + sp * cm * ((ap * a3 + am * a12) * ca + (am * a3 - ap * a12) * sa))
        b12 = (cp * sm * ((ap * a3 + am * a12) * ca + (am * a3 - ap * a12) * sa)
               + sp * cm * ((-am * a3 + ap * a12) * ca + (ap * a3 + am * a12) * sa))
        b13 = (-cp * sm * ((ap * a2 - am * a13) * ca + (am * a2 + ap * a13) * sa)
               + sp * cm * ((am * a2 + ap * a13) * ca + (-ap * a2 + am * a13) * sa))
    else:
        b2 = (-cp * sm * ((-am * a2 + ap * a13) * ca + (ap * a2 + am * a13) * sa)
              + sp * cm * ((ap * a2 + am * a13) * ca + (am * a2 - ap * a13) * sa))
        b3 = (cp * sm * ((am * a3 + ap * a12) * ca + (-ap * a3 + am * a12) * sa)
              + sp * cm * ((ap * a3 - am * a12) * ca + (am * a3 + ap * a12) * sa))
        b12 = (cp * sm * ((-ap * a3 + am * a12) * ca - (am * a3 + ap * a12) * sa)
               + sp * cm * ((am * a3 + ap * a12) * ca + (-ap * a3 + am * a12) * sa))
        b13 = (cp * sm * ((ap * a2 + am * a13) * ca + (am * a2 - ap * a13) * sa)
               + sp * cm * ((-am * a2 + ap * a13) * ca + (ap * a2 + am * a13) * sa))
    scale = math.exp(a0)
    return np.array([
        scale * b0, scale * b1 / cn, scale * b2 / cn, scale * b3 / cn,
        scale * b12 / cn, scale * b13 / cn, scale * b23 / cn, scale * b123,
    ])


@pytest.mark.parametrize("sig,u", [(Signature.CL30, 1.0), (Signature.CL12, -1.0)])
def test_expanded_formula_snapshot(sig, u, rng):
    for _ in range(100):
        x = rand_mv(rng, sig)
        if exp_factors(x).branch is ExpBranch.BOTH_DEGENERATE:
            continue
        got = exp(x)
        want = _expanded_cl30_cl12(x, u)
        assert max_err(got, want) < 1e-12 * max(1.0, np.abs(want).max())


# SHA-256 prefixes of exp's results, every bit of them, on the seeded inputs
# below, as computed before sin and cos shared exp's two bodies.  A change
# that alters how exp rounds must replace these knowingly.
_EXP_DIGESTS = {
    Signature.CL30: "b2e3887bc7986ecf",
    Signature.CL03: "f4492dec10523f03",
    Signature.CL12: "a5fa69d4f3641cf9",
    Signature.CL21: "2549c0e0dbf80452",
}


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_exp_bits_are_pinned(sig):
    rng = np.random.default_rng(2718)
    h = hashlib.sha256()
    for i in range(500):
        c = rng.uniform(-1.0, 1.0, 8) * 10.0 ** rng.uniform(-9.0, 1.0)
        if i % 4 == 0:
            c[1:7] *= 1e-9
        h.update(" ".join(v.hex() for v in exp(Multivector(sig, tuple(c))).t).encode())
    assert h.hexdigest()[:16] == _EXP_DIGESTS[sig]


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_exp_of_zero(sig):
    assert max_err(exp(Multivector.zero(sig)), np.eye(8)[0]) == 0.0


def test_exp_pure_bivector_rotor():
    theta = 0.77
    got = exp(blade(Signature.CL30, "e12", theta))
    want = np.zeros(8)
    want[0], want[4] = math.cos(theta), math.sin(theta)
    assert max_err(got, want) < 1e-15
    quarter = exp(blade(Signature.CL30, "e12", math.pi / 2))
    assert max_err(quarter, blade(Signature.CL30, "e12")) < 1e-15


def test_exp_reference_value():
    x = Multivector(Signature.CL30, np.array(REF_COEFFS) / REF_SCALE)
    assert max_err(exp(x), EXP_OF_REF) < TABLE_TOL


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_defining_property_finite_difference(sig, rng):
    h = 1e-5
    for _ in range(50):
        x = rand_mv(rng, sig)
        fd = (exp(x * (1.0 + h)) - exp(x * (1.0 - h))) * (1.0 / (2.0 * h))
        want = geometric_product(x, exp(x))
        scale = max(1.0, float(np.abs(want.c).max()))
        assert max_err(fd, want) <= 1e-8 * scale
        # multiplication from either side coincides
        assert max_err(geometric_product(exp(x), x), want) <= 1e-12 * scale


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_group_law(sig, rng):
    for _ in range(50):
        x = rand_mv(rng, sig)
        s, t = rng.uniform(-1.0, 1.0, 2)
        lhs = exp(x * (s + t))
        rhs = geometric_product(exp(x * s), exp(x * t))
        assert max_err(lhs, rhs) <= 1e-10 * max(1.0, float(np.abs(lhs.c).max()))


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_exp_inverse_by_sign_flip(sig, rng):
    one = np.eye(8)[0]
    for _ in range(50):
        x = rand_mv(rng, sig)
        assert max_err(geometric_product(exp(x), exp(-x)), one) <= 1e-10
    for scale in (1e-8, 1e-3, 1.0, 4.0):
        for _ in range(25):
            x = rand_mv(rng, sig, scale)
            e, f = exp(x), exp(-x)
            # Relative to the size of the terms summed: the largest e_i * f_j.
            size = max(1.0, max(map(abs, e.t)) * max(map(abs, f.t)))
            assert max_err(geometric_product(e, f), one) <= 1e-13 * size


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_series_agreement_normalized(sig, rng):
    for _ in range(50):
        x = rand_mv(rng, sig)
        try:
            x, _ = normalize(x, "ceil")
        except Exception:
            pass  # negative determinant: coefficients are already in [-1, 1]
        assert max_err(exp(x), series_exp(x, 20)) <= 1e-8


def test_exp_factors_examples():
    # a_plus = 0 forces the three difference conditions in CL03
    x = Multivector(Signature.CL03, [0.0, 1.0, -0.5, 0.7, 0.7, 0.5, 1.0, 0.0])
    f = exp_factors(x)
    assert f.branch is ExpBranch.PLUS_DEGENERATE
    assert f.a_plus == 0.0

    f = exp_factors(blade(Signature.CL30, "e1"))
    assert (f.a_plus, f.a_minus) == (1.0, 0.0)
    assert f.c_norm == 1.0
    assert f.branch is ExpBranch.MINUS_DEGENERATE


def test_exp_factors_reference_mv_against_quadratic_forms():
    c = np.array(REF_COEFFS, dtype=float) / REF_SCALE
    c[0] = 0.0
    c[7] = 0.0
    x = Multivector(Signature.CL30, c)
    a1, a2, a3, a12, a13, a23 = c[1:7]
    a_s = a1**2 + a2**2 + a3**2 - a12**2 - a13**2 - a23**2
    a_i = 2.0 * (a3 * a12 - a2 * a13 + a1 * a23)
    radius = math.hypot(a_s, a_i)
    f = exp_factors(x)
    assert abs(f.a_plus - math.sqrt((a_s + radius) / 2.0)) < 1e-14
    assert abs(f.a_minus - a_i / math.sqrt(2.0 * (a_s + radius))) < 1e-14
    assert abs(f.c_norm - radius) < 1e-13


def test_cl21_factors_carry_signed_squares():
    x = Multivector(Signature.CL21, [0, 0.4, 0.3, 1.5, 0.5, -0.3, 0.4, 0])
    f = exp_factors(x)
    assert f.a_plus is None and f.a_minus is None
    a1, a2, a3, a12, a13, a23 = (float(v) for v in x.c[1:7])
    want_plus = -((a3 - a12) ** 2) + (a2 - a13) ** 2 + (a1 + a23) ** 2
    assert abs(f.a_plus_sq - want_plus) < 1e-14


def test_degenerate_branches_match_series(rng):
    cases = []
    for which in ("plus", "minus"):
        cases += [cl03_degenerate(rng, which) for _ in range(10)]
    cases.append(Multivector(Signature.CL03, [0.3, 0, 0, 0, 0, 0, 0, -0.6]))
    for sig in (Signature.CL30, Signature.CL12):
        cases += [null_vector_bivector(rng, sig) for _ in range(10)]
    # CL21: one factor square vanishes, the other stays positive or negative
    cases.append(Multivector(Signature.CL21, [0.1, 0, 0.8, 0.5, -0.5, -0.2, 0, -0.3]))
    cases.append(Multivector(Signature.CL21, [0.0, 0.4, 0.3, 1.5, 0.5, -0.3, 0.4, 0.2]))
    cases.append(Multivector(Signature.CL21, [0.2, 0, 1, 1, 0, 0, 0, 0.1]))
    for x in cases:
        assert max_err(exp(x), series_exp(x, 30)) <= 1e-8


def test_cl21_degenerate_classification():
    x = Multivector(Signature.CL21, [0.0, 0.4, 0.3, 1.5, 0.5, -0.3, 0.4, 0.2])
    assert exp_factors(x).branch is ExpBranch.PLUS_DEGENERATE
    both = Multivector(Signature.CL21, [0.2, 0, 1, 1, 0, 0, 0, 0.1])
    assert exp_factors(both).branch is ExpBranch.BOTH_DEGENERATE


def test_degenerate_branch_continuity(rng):
    eps = 1e-8
    cases = [
        cl03_degenerate(rng, "plus"),
        null_vector_bivector(rng, Signature.CL30),
        null_vector_bivector(rng, Signature.CL12),
        Multivector(Signature.CL21, [0.2, 0, 1, 1, 0, 0, 0, 0.1]),
    ]
    for x in cases:
        base = exp(x)
        for _ in range(5):
            bump = rand_mv(rng, x.sig, scale=eps)
            assert max_err(exp(x + bump), base) <= 1e-6


def test_cl03_factor_squares_from_products(rng):
    # Coordinate-free route: a_plus^2 and a_minus^2 equal the scalar parts
    # of -(a^2 + A^2 +/- 2*e123*(a ^ A)), all computed with geometric
    # products and grade projection.
    sig = Signature.CL03
    i_mv = blade(sig, "e123")
    for _ in range(50):
        x = rand_mv(rng, sig)
        a = grade_select(x, 1)
        biv = grade_select(x, 2)
        wedge = grade_select(geometric_product(a, biv), 3)
        core = geometric_product(a, a) + geometric_product(biv, biv)
        two_iw = geometric_product(i_mv, wedge) * 2.0
        plus = -(core + two_iw).c[0]
        minus = -(core - two_iw).c[0]
        f = exp_factors(x)
        assert abs(plus - f.a_plus_sq) < 1e-12 * max(1.0, abs(plus))
        assert abs(minus - f.a_minus_sq) < 1e-12 * max(1.0, abs(minus))


def _random_blade(rng, sig, grade_slice, square_fn, want_positive):
    while True:
        c = np.zeros(8)
        c[grade_slice] = rng.uniform(-1.5, 1.5, 3)
        q = square_fn(c, sig.squares)
        if (q > 0.1) == want_positive and abs(q) > 0.1:
            return Multivector(sig, c)


def _vector_square(c, squares):
    return squares[0] * c[1] ** 2 + squares[1] * c[2] ** 2 + squares[2] * c[3] ** 2


def _bivector_square(c, squares):
    s1, s2, s3 = squares
    return -s1 * s2 * c[4] ** 2 - s1 * s3 * c[5] ** 2 - s2 * s3 * c[6] ** 2


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_particular_cases_agree_with_exp(sig, rng):
    sign_choices = {
        Signature.CL30: {"vector": [True], "bivector": [False]},
        Signature.CL03: {"vector": [False], "bivector": [False]},
        Signature.CL12: {"vector": [True, False], "bivector": [True, False]},
        Signature.CL21: {"vector": [True, False], "bivector": [True, False]},
    }[sig]
    for positive in sign_choices["vector"]:
        for _ in range(25):
            v = _random_blade(rng, sig, slice(1, 4), _vector_square, positive)
            assert max_err(exp(v), exp_particular(v)) <= 1e-12
    for positive in sign_choices["bivector"]:
        for _ in range(25):
            b = _random_blade(rng, sig, slice(4, 7), _bivector_square, positive)
            assert max_err(exp(b), exp_particular(b)) <= 1e-12
    for _ in range(25):
        c = np.zeros(8)
        c[0], c[7] = rng.uniform(-1.0, 1.0, 2)
        s = Multivector(sig, c)
        assert max_err(exp(s), exp_particular(s)) <= 1e-12


def test_particular_case_shapes():
    cl03 = Signature.CL03
    v = blade(cl03, "e1", 0.9)  # vector square is negative in CL03
    got = exp_particular(v)
    assert abs(got.c[0] - math.cos(0.9)) < 1e-15
    assert abs(got.c[1] - math.sin(0.9)) < 1e-15

    s = Multivector(cl03, [0.5, 0, 0, 0, 0, 0, 0, 0.8])
    got = exp_particular(s)
    assert abs(got.c[0] - math.exp(0.5) * math.cosh(0.8)) < 1e-15
    assert abs(got.c[7] - math.exp(0.5) * math.sinh(0.8)) < 1e-15
    for a123 in (1e-8, -1e-3):
        got = exp_particular(Multivector(cl03, [0.5, 0, 0, 0, 0, 0, 0, a123]))
        assert got.c[7] == pytest.approx(math.exp(0.5) * math.sinh(a123), rel=1e-15)

    b = blade(Signature.CL21, "e13", 1.1)  # bivector square is positive here
    got = exp_particular(b)
    assert abs(got.c[0] - math.cosh(1.1)) < 1e-15
    assert abs(got.c[5] - math.sinh(1.1)) < 1e-15


def test_particular_rejects_mixed_grades():
    x = blade(Signature.CL30, "e1") + blade(Signature.CL30, "e12")
    with pytest.raises(MixedGradeInputError):
        exp_particular(x)


def test_determinant_factorizations_through_factors(rng):
    # For vector+bivector arguments the determinant factors through the
    # exponential factor pair: product of the two squares where the
    # pseudoscalar squares to +1, square of their sum where it is -1 (the
    # printed identity chain for the latter carries a typographic extra
    # square; the degree-4 version below is the one that verifies).
    from cl3 import center_decompose, determinant

    for sig in ALL_SIGS:
        for _ in range(30):
            c = rng.uniform(-1.5, 1.5, 8)
            c[0] = c[7] = 0.0
            x = Multivector(sig, c)
            det = determinant(x)
            f = exp_factors(x)
            scale = max(1.0, abs(det))
            if sig.i_square == 1:
                assert abs(det - f.a_plus_sq * f.a_minus_sq) <= 1e-10 * scale
            else:
                ce = center_decompose(x)
                assert abs(det - (ce.a_s**2 + ce.a_i**2)) <= 1e-10 * scale
                assert abs(det - (f.a_plus_sq + f.a_minus_sq) ** 2) <= 1e-10 * scale


def _left_regular(x):
    """8x8 matrix L with L @ y = coefficients of x * y, from the sign table."""
    index, sign = sign_table(x.sig)
    mat = np.zeros((8, 8))
    for i in range(8):
        for j in range(8):
            mat[index[i, j], j] += sign[i, j] * x.c[i]
    return mat


@pytest.mark.parametrize("s", [1e3, 1e5, 1e7])
def test_cl03_large_scale_matches_expm(s):
    # a1 = (s+3)/2, a23 = (s-3)/2: one factor length is 3 while the input's
    # scale is s, so a tolerance that grows with the scale must not touch it.
    c = np.zeros(8)
    c[1], c[6] = (s + 3.0) / 2.0, (s - 3.0) / 2.0
    x = Multivector(Signature.CL03, c)
    want = scipy.linalg.expm(_left_regular(x))[:, 0]
    # scipy's scaling and squaring itself drifts by ~4e-9 at s = 1e7.
    assert max_err(exp(x), want) <= 1e-7 * np.abs(want).max()


def test_cl30_large_scale_near_nilpotent_matches_mpmath(rng):
    # x = s*e1 + sqrt(s^2 - 2500)*e12 has (a + A)^2 = 2500 at every scale s,
    # so exp(x) grows like e^50 * s and is nowhere near 1 + x.
    for s in (1e3, 1e5, 1e7):
        c = np.zeros(8)
        c[1], c[4] = s, math.sqrt(s * s - 2500.0)
        x = Multivector(Signature.CL30, c)
        assert exp_factors(x).branch is ExpBranch.MINUS_DEGENERATE
    # scipy's expm is off by ~100% here; the input's own conditioning
    # (~1e12) caps any float64 result near 4 digits.
    with mpmath.workdps(30):
        col = mpmath.expm(mpmath.matrix(_left_regular(x).tolist()))[:, 0]
        want = np.array([float(v) for v in col])
    assert max_err(exp(x), want) <= 1e-3 * np.abs(want).max()
    # A nilpotent vector+bivector part stays nilpotent at every scale.
    for sig in (Signature.CL30, Signature.CL12):
        n = null_vector_bivector(rng, sig)
        for k in range(-6, 7):
            assert exp_factors(n * 10.0**k).branch is ExpBranch.BOTH_DEGENERATE


def test_exp_ignores_ga_eps(monkeypatch, capsys):
    # The branch label's tolerance is a constant: no environment variable
    # changes the label, the factors, the exponential or the CLI's report.
    # (A label tolerance of 1e-3 would call this input both-degenerate.)
    x = Multivector(Signature.CL30, [0.0, 1, 0, 0, 1, 0, 1e-4, 0.0])
    argv = ["eval", "--fn", "exp-factors", "--mv", "0,1,0,0,1,0,0.0001,0", "--format", "json"]
    seen = []
    for raw in (None, "1e-3", "0", "junk"):
        if raw is None:
            monkeypatch.delenv("GA_EPS", raising=False)
        else:
            monkeypatch.setenv("GA_EPS", raw)
        assert main(argv) == 0
        seen.append((exp_factors(x), exp(x).t, capsys.readouterr()))
    assert seen[0][0].branch is ExpBranch.GENERIC
    assert seen[0][2].err == "" and json.loads(seen[0][2].out)["branch"] == "generic"
    assert all(s == seen[0] for s in seen[1:])


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_exp_overflow_is_a_typed_error(sig):
    with pytest.raises(NonFiniteError):
        exp(Multivector(sig, [800, 1, 0, 0, 0, 0, 0, 0]))
    with pytest.raises(NonFiniteError):
        exp_particular(Multivector(sig, [800, 0, 0, 0, 0, 0, 0, 0]))


@pytest.mark.parametrize("sig", [Signature.CL03, Signature.CL21])
def test_split_exp_with_large_scalar_and_pseudoscalar(sig):
    # (-500, 800): e^{a0} underflows and e^{a123} overflows on their own,
    # but the results, about e^{a0 + a123} = e^300, are finite.
    # (300.1, -250.3): a0 + a123 and a0 - a123 round, which must not cost
    # digits (a plain exp of the rounded sum is off by 5.7e-14 here).
    # (0, 710): e^710 overflows, but cosh 710 = sinh 710 = 1.1e308 do not.
    for a0, a123, tol in ((-500, 800, 1e-12), (300.1, -250.3, 1e-15), (0, 710, 1e-15)):
        general = Multivector(sig, (a0, 0.1, 0.2, 0, 0, 0, 0.3, a123))
        center = Multivector(sig, (a0, 0, 0, 0, 0, 0, 0, a123))
        for x, fns in ((general, (exp,)), (center, (exp, exp_particular))):
            with mpmath.workdps(30):
                col = mpmath.expm(mpmath.matrix(_left_regular(x).tolist()))[:, 0]
                want = np.array([float(v) for v in col])
            for fn in fns:
                assert max_err(fn(x), want) <= tol * np.abs(want).max()
