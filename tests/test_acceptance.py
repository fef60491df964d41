"""End-to-end acceptance checks, one per criterion, at pinned tolerances.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them inline).  Random data is seeded; runtime-limited criteria assert
their own wall-clock budget.
"""

import math
import time

import numpy as np
import pytest

from cl3 import (
    CenterElement,
    FieldConfig,
    Multivector,
    NormUndefinedError,
    RampSweep,
    SeriesFamily,
    SeriesSpec,
    Signature,
    blade,
    center_product,
    det_norm,
    determinant,
    down_probability,
    evolve_spinor,
    exp,
    exp_particular,
    field_at,
    geometric_product,
    get_remap_table,
    basis_remap,
    hyperbolic_exact,
    normalize,
    ratio_exact,
    series_eval,
    sqrt_center,
    sweep_ramp,
    trig_exact,
)
from conftest import ALL_SIGS, cl03_degenerate, max_err, null_vector_bivector, rand_mv
from reference_values import EXACT, REF_COEFFS, REF_DET, SERIES, TABLE_TOL

CL30 = Signature.CL30
SEED = 314159


def _report(number, label, ok):
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {number} failed: {label}"


def _ref_normed():
    return Multivector(CL30, np.array(REF_COEFFS) / 17.0)


def test_criterion_01_hyperbolic_table():
    start = time.perf_counter()
    x = _ref_normed()
    ok = (
        max_err(hyperbolic_exact(x, "sinh"), EXACT["sinh"]) < TABLE_TOL
        and max_err(hyperbolic_exact(x, "cosh"), EXACT["cosh"]) < TABLE_TOL
        and max_err(ratio_exact(x, "tanh"), EXACT["tanh"]) < TABLE_TOL
    )
    elapsed = time.perf_counter() - start
    _report(1, f"hyperbolic table to 1e-6 in {elapsed:.3f}s", ok and elapsed < 1.0)


def test_criterion_02_trigonometric_table():
    start = time.perf_counter()
    x = _ref_normed()
    ok = (
        max_err(trig_exact(x, "sin"), EXACT["sin"]) < TABLE_TOL
        and max_err(trig_exact(x, "cos"), EXACT["cos"]) < TABLE_TOL
        and max_err(ratio_exact(x, "tan"), EXACT["tan"]) < TABLE_TOL
    )
    elapsed = time.perf_counter() - start
    _report(2, f"trigonometric table to 1e-6 in {elapsed:.3f}s", ok and elapsed < 1.0)


def test_criterion_03_series_tables():
    x = _ref_normed()
    ok = True
    for (name, order), want in SERIES.items():
        fam = SeriesFamily[name.upper()]
        ok &= max_err(series_eval(x, SeriesSpec(fam, order)), want) < TABLE_TOL
    _report(3, "truncated-series tables to 1e-6", ok)


def test_criterion_04_determinant_and_norm():
    x = Multivector(CL30, REF_COEFFS)
    ok = determinant(x) == REF_DET
    ok &= abs(det_norm(x) - REF_DET ** 0.25) < 1e-10
    _, scale = normalize(x, "ceil")
    ok &= scale == 17.0
    _report(4, "determinant 71129, norm and ceil scale 17", ok)


def test_criterion_05_exponential_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    one = np.eye(8)[0]
    h = 1e-5
    ok = True
    for sig in ALL_SIGS:
        for _ in range(1000):
            x = rand_mv(rng, sig)
            try:
                x, _ = normalize(x, "ceil")
            except NormUndefinedError:
                pass
            ok &= max_err(geometric_product(exp(x), exp(-x)), one) <= 1e-10
            s, t = rng.uniform(-1.0, 1.0, 2)
            lhs = exp(x * (s + t))
            ok &= max_err(lhs, geometric_product(exp(x * s), exp(x * t))) <= 1e-10
            ok &= max_err(exp(x), series_eval(x, SeriesSpec(SeriesFamily.EXP, 20))) <= 1e-8
            fd = (exp(x * (1.0 + h)) - exp(x * (1.0 - h))) * (1.0 / (2.0 * h))
            want = geometric_product(x, exp(x))
            ok &= max_err(fd, want) <= 1e-8 * max(1.0, float(np.abs(want.c).max()))
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    _report(5, f"4000-sample exponential property suite in {elapsed:.1f}s", ok and elapsed < 30.0)


def test_criterion_06_degenerate_branches():
    rng = np.random.default_rng(SEED)
    cases = [cl03_degenerate(rng, w) for w in ("plus", "minus") for _ in range(20)]
    cases.append(Multivector(Signature.CL03, [0.3, 0, 0, 0, 0, 0, 0, -0.6]))
    for sig in (Signature.CL30, Signature.CL12):
        cases += [null_vector_bivector(rng, sig) for _ in range(20)]
    cases += [
        Multivector(Signature.CL21, [0.1, 0, 0.8, 0.5, -0.5, -0.2, 0, -0.3]),
        Multivector(Signature.CL21, [0.0, 0.4, 0.3, 1.5, 0.5, -0.3, 0.4, 0.2]),
        Multivector(Signature.CL21, [0.2, 0, 1, 1, 0, 0, 0, 0.1]),
    ]
    ok = True
    for x in cases:
        ok &= max_err(exp(x), series_eval(x, SeriesSpec(SeriesFamily.EXP, 30))) <= 1e-8
    _report(6, f"{len(cases)} degenerate-branch cases vs order-30 series", ok)


def _random_graded(rng, sig, grade_slice, square_fn, want_positive):
    while True:
        c = np.zeros(8)
        c[grade_slice] = rng.uniform(-1.5, 1.5, 3)
        q = square_fn(c, sig.squares)
        if (q > 0.0) == want_positive and abs(q) > 1e-2:
            return Multivector(sig, c)


def _vec_sq(c, squares):
    return squares[0] * c[1] ** 2 + squares[1] * c[2] ** 2 + squares[2] * c[3] ** 2


def _biv_sq(c, squares):
    s1, s2, s3 = squares
    return -s1 * s2 * c[4] ** 2 - s1 * s3 * c[5] ** 2 - s2 * s3 * c[6] ** 2


def test_criterion_07_particular_cases():
    rng = np.random.default_rng(SEED)
    branches = {
        Signature.CL30: {"vector": [True], "bivector": [False]},
        Signature.CL03: {"vector": [False], "bivector": [False]},
        Signature.CL12: {"vector": [True, False], "bivector": [True, False]},
        Signature.CL21: {"vector": [True, False], "bivector": [True, False]},
    }
    ok = True
    for sig, table in branches.items():
        for positive in table["vector"]:
            for _ in range(100):
                v = _random_graded(rng, sig, slice(1, 4), _vec_sq, positive)
                ok &= max_err(exp(v), exp_particular(v)) <= 1e-12
        for positive in table["bivector"]:
            for _ in range(100):
                b = _random_graded(rng, sig, slice(4, 7), _biv_sq, positive)
                ok &= max_err(exp(b), exp_particular(b)) <= 1e-12
        for _ in range(100):
            c = np.zeros(8)
            c[0], c[7] = rng.uniform(-1.0, 1.0, 2)
            s = Multivector(sig, c)
            ok &= max_err(exp(s), exp_particular(s)) <= 1e-12
    _report(7, "blade/center fast paths agree with exp to 1e-12", ok)


def test_criterion_08_isomorphism_transport():
    rng = np.random.default_rng(SEED)
    ok = True
    for name in ("cl30_cl12_1", "cl30_cl12_2"):
        table = get_remap_table(name)
        for _ in range(100):
            x = rand_mv(rng, CL30)
            ok &= max_err(basis_remap(exp(x), table), exp(basis_remap(x, table))) <= 1e-10
    _report(8, "exp transports through both relabeling variants", ok)


def test_criterion_09_center_roots():
    rng = np.random.default_rng(SEED)
    ok = True
    for sig in ALL_SIGS:
        for _ in range(1000):
            a_i = rng.uniform(-3.0, 3.0)
            if sig.i_square == -1:
                a_s = rng.uniform(-3.0, 3.0)
                if a_i == 0.0 and a_s <= 0.0:
                    continue
                expected = 2
            else:
                a_s = abs(a_i) + rng.uniform(0.01, 3.0)
                expected = 4 if a_i != 0.0 else 2
            c = CenterElement(a_s, a_i)
            roots = sqrt_center(c, sig)
            ok &= len(roots) == expected
            for r in roots:
                sq = center_product(r, r, sig)
                ok &= abs(sq.a_s - a_s) <= 1e-12 * max(1.0, abs(a_s))
                ok &= abs(sq.a_i - a_i) <= 1e-12 * max(1.0, abs(a_i))
    _report(9, "center square roots square back to 1e-12", ok)


def _rk4_spinor(cfg, t_end, dt=1e-3):
    i_mv = blade(CL30, "e123")

    def rhs(t, psi):
        return (i_mv * field_at(cfg, t) * psi) * (0.5 * cfg.gamma)

    psi = Multivector.scalar(CL30, 1.0)
    t = 0.0
    for _ in range(round(t_end / dt)):
        k1 = rhs(t, psi)
        k2 = rhs(t + dt / 2, psi + k1 * (dt / 2))
        k3 = rhs(t + dt / 2, psi + k2 * (dt / 2))
        k4 = rhs(t + dt, psi + k3 * dt)
        psi = psi + (k1 + k2 * 2 + k3 * 2 + k4) * (dt / 6)
        t += dt
    return psi


def test_criterion_10_spin_dynamics():
    ok = True
    # resonance: sigma*omega + omega0 = 0 with omega1 = 0.05
    cfg = FieldConfig(b0=1.0, b1=0.05, omega=1.0, sigma=-1)
    for t in np.linspace(0.0, 500.0, 2001):
        ok &= abs(down_probability(cfg, t) - math.sin(0.05 * t / 2) ** 2) < 1e-10

    cfg = FieldConfig(b0=0.8, b1=0.25, omega=1.0, sigma=-1)
    t_end = 5.0
    closed = evolve_spinor(cfg, t_end, Multivector.scalar(CL30, 1.0))
    ok &= max_err(closed, _rk4_spinor(cfg, t_end)) <= 1e-6

    sweep = RampSweep(-2.0, 2.0, 500.0, 5001, omega=1.0, omega1=0.05)
    peaks = {}
    for sigma in (-1, 1):
        trace = sweep_ramp(sweep, sigma)
        k = int(np.argmax(trace.p_down))
        b0_res = -sigma * sweep.omega
        ok &= abs(trace.b0[k] - b0_res) <= 0.1
        window = np.abs(trace.b0 - b0_res) <= 0.1
        ok &= trace.p_down[~window].max() < trace.p_down[k]
        peaks[sigma] = trace.b0[k]
    ok &= peaks[-1] > 0.0 > peaks[1]
    _report(10, "Rabi resonance, integrator oracle, mirrored sweep peaks", ok)


def test_criterion_11_commutation_identities():
    rng = np.random.default_rng(SEED)
    one = np.eye(8)[0]
    ok = True
    for i in range(500):
        sig = ALL_SIGS[i % 4]
        x = rand_mv(rng, sig)
        ch = hyperbolic_exact(x, "cosh")
        sh = hyperbolic_exact(x, "sinh")
        ok &= max_err(geometric_product(ch, ch) - geometric_product(sh, sh), one) <= 1e-10
        ok &= max_err(geometric_product(sh, ch), geometric_product(ch, sh)) <= 1e-10
        s, c = trig_exact(x, "sin"), trig_exact(x, "cos")
        ok &= max_err(geometric_product(s, s) + geometric_product(c, c), one) <= 1e-10
        ok &= max_err(trig_exact(x * 2.0, "sin"), geometric_product(s, c) * 2.0) <= 1e-10
        want = geometric_product(c, c) - geometric_product(s, s)
        ok &= max_err(trig_exact(x * 2.0, "cos"), want) <= 1e-10
        ok &= max_err(geometric_product(s, c), geometric_product(c, s)) <= 1e-10
    _report(11, "function identities on 500 random multivectors", ok)
