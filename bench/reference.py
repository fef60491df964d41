"""Independent references for the benchmark's output checks.

Nothing here imports ``cl3``.  The blade product is derived again from the
generator relations (by sorting generator sequences, not by bitmasks), and
every function of a multivector ``x`` is evaluated as the same function of
its 8x8 left-regular matrix ``L(x)`` (``L(x) @ y`` is the coefficient vector
of ``x * y``), applied to the unit vector of the scalar blade.

Two back ends evaluate it the same way:

* float64 through ``scipy.linalg.expm`` (Higham's scaling and squaring),
  cheap enough to check every kept output of a run;
* a 50-digit ``mpmath`` oracle, costly (about 0.1 s per input), used on a
  fixed per-class sample to state accuracy in digits.

The truncated series are checked against the same polynomial on ``L(x)``,
and the stepped spin sweep against the stepped model at oracle precision.
"""

from __future__ import annotations

import functools

import numpy as np

BLADES = ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))
SQUARES = {"cl30": (1, 1, 1), "cl03": (-1, -1, -1), "cl12": (1, -1, -1), "cl21": (1, 1, -1)}
GRADES = tuple(len(b) for b in BLADES)
REVERSE = tuple(-1 if g in (2, 3) else 1 for g in GRADES)
GRADE_INVERSE = tuple(-1 if g in (1, 3) else 1 for g in GRADES)
ORACLE_DPS = 50


def _blade_mul(a, b, squares):
    seq = list(a + b)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    out = []
    for g in seq:
        if out and out[-1] == g:
            out.pop()
            sign *= squares[g - 1]
        else:
            out.append(g)
    return BLADES.index(tuple(out)), sign


# (i, j, k, s): blade i times blade j is s times blade k.
PRODUCT = {
    name: tuple((i, j, *_blade_mul(BLADES[i], BLADES[j], sq)) for i in range(8) for j in range(8))
    for name, sq in SQUARES.items()
}
_TENSOR = {}
for _name, _entries in PRODUCT.items():
    _t = np.zeros((8, 8, 8))
    for _i, _j, _k, _s in _entries:
        _t[_i, _j, _k] = _s
    _TENSOR[_name] = _t


def left_matrix(alg: str, x) -> np.ndarray:
    """Float64 left-regular matrix: ``left_matrix(alg, x) @ y == x * y``."""
    return np.einsum("i,ijk->kj", np.asarray(x, dtype=float), _TENSOR[alg])


def product(alg: str, x, y) -> np.ndarray:
    return left_matrix(alg, x) @ np.asarray(y, dtype=float)


def _involutions(x):
    rev = [r * v for r, v in zip(REVERSE, x)]
    gi = [g * v for g, v in zip(GRADE_INVERSE, x)]
    gi_rev = [g * v for g, v in zip(GRADE_INVERSE, rev)]
    return rev, gi, gi_rev


# ---------------------------------------------------------------- float64

def float_eval(alg: str, fn: str, x) -> np.ndarray:
    """``fn`` of ``x`` in float64; ``determinant`` returns a 1-vector."""
    import scipy.linalg as sl

    x = np.asarray(x, dtype=float)
    lx = left_matrix(alg, x)
    if fn == "determinant":
        rev, gi, gi_rev = _involutions(x)
        adj = product(alg, product(alg, rev, gi), gi_rev)
        return product(alg, x, adj)[:1]
    if fn == "inverse":
        return np.linalg.solve(lx, np.eye(8)[:, 0])
    if fn == "exp":
        return sl.expm(lx)[:, 0]
    if fn in ("sinh", "cosh", "tanh"):
        e, ei = sl.expm(lx), sl.expm(-lx)
        s, c = 0.5 * (e - ei), 0.5 * (e + ei)
    else:
        e, ei = sl.expm(1j * lx), sl.expm(-1j * lx)
        s, c = (-0.5j * (e - ei)).real, (0.5 * (e + ei)).real
    if fn in ("sinh", "sin"):
        return s[:, 0]
    if fn in ("cosh", "cos"):
        return c[:, 0]
    return np.linalg.solve(c, s[:, 0])


def denominator(alg: str, fn: str, x):
    """Left-regular matrix of what ``fn`` inverts (``x``, cosh x or cos x).

    Its condition number bounds how many digits a ratio can keep, and its
    first column is the denominator multivector itself.  ``None`` for
    functions that invert nothing.
    """
    import scipy.linalg as sl

    lx = left_matrix(alg, x)
    if fn == "inverse":
        return lx
    if fn == "tanh":
        return 0.5 * (sl.expm(lx) + sl.expm(-lx))
    if fn == "tan":
        return (0.5 * (sl.expm(1j * lx) + sl.expm(-1j * lx))).real
    return None


def near_singular(alg: str, den, margin: float = 1e-9) -> bool:
    """Whether the denominator's determinant is within ``margin`` of zero,
    relative to the fourth power of its coefficient sum (the scale of a
    3D determinant).  The library's own cutoff is 1e-12 on that scale; the
    margin leaves room for rounding and for a later cutoff policy."""
    d = den[:, 0]
    det = float_eval(alg, "determinant", d)[0]
    return abs(det) <= margin * float(np.abs(d).sum()) ** 4


def rel_err(got, want) -> float:
    """Normwise relative error ``max|got - want| / max|want|``."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = float(np.abs(want).max())
    return float(np.abs(got - want).max()) / (scale if scale > 0.0 else 1.0)


# ---------------------------------------------------------------- mpmath

def _mp_left(alg, x):
    import mpmath as mp

    m = mp.matrix(8, 8)
    for i, j, k, s in PRODUCT[alg]:
        if x[i]:
            m[k, j] += s * x[i]
    return m


def oracle_eval(alg: str, fn: str, x) -> list:
    """``fn`` of ``x`` as ``mpmath`` numbers at ``ORACLE_DPS`` digits."""
    import mpmath as mp

    with mp.workdps(ORACLE_DPS):
        xs = [mp.mpf(float(v)) for v in x]
        if fn == "determinant":
            rev, gi, gi_rev = _involutions(xs)
            col = _mp_left(alg, gi_rev)[:, 0]
            for factor in (gi, rev, xs):
                col = _mp_left(alg, factor) * col
            return [col[0]]
        lx = _mp_left(alg, xs)
        e0 = mp.matrix([1] + [0] * 7)
        if fn == "inverse":
            out = mp.lu_solve(lx, e0)
        elif fn == "exp":
            out = mp.expm(lx)[:, 0]
        else:
            if fn in ("sinh", "cosh", "tanh"):
                e = mp.expm(lx)
                ei = mp.inverse(e)
                s, c = (e - ei) * 0.5, (e + ei) * 0.5
            else:
                e = mp.expm(lx * 1j)
                ei = mp.inverse(e)
                s, c = (e - ei) * (-0.5j), (e + ei) * 0.5
            if fn in ("sinh", "sin"):
                out = s[:, 0]
            elif fn in ("cosh", "cos"):
                out = c[:, 0]
            else:
                out = mp.lu_solve(c, s[:, 0])
        return [mp.re(v) for v in out]


def oracle_digits(got, want) -> float:
    """-log10 of the normwise relative error of float ``got`` against the oracle."""
    import mpmath as mp

    with mp.workdps(ORACLE_DPS):
        scale = max(abs(w) for w in want)
        err = max(abs(mp.mpf(float(g)) - w) for g, w in zip(got, want))
        rel = err / scale if scale else err
        # float64 carries about 16 digits; an exact match reads as 17.
        return float(-mp.log10(max(rel, mp.mpf("1e-17"))))


# ---------------------------------------------------------------- series

@functools.lru_cache(maxsize=None)
def series_terms(family: str, order: int) -> tuple[tuple[int, float], ...]:
    """(power, coefficient) of every Maclaurin term of degree <= order.

    Tangent coefficients come from mpmath's Bernoulli numbers, so they are
    independent of the library's own coefficient tables.
    """
    import mpmath as mp

    terms = []
    for p in range(order + 1):
        if family == "exp":
            c = 1 / mp.factorial(p)
        elif family in ("sin", "sinh") and p % 2 == 1:
            c = (-1) ** (p // 2 if family == "sin" else 0) / mp.factorial(p)
        elif family in ("cos", "cosh") and p % 2 == 0:
            c = (-1) ** (p // 2 if family == "cos" else 0) / mp.factorial(p)
        elif family in ("tan", "tanh") and p % 2 == 1:
            k = (p + 1) // 2
            num, den = mp.bernfrac(2 * k)
            c = mp.mpf(4 ** k * (4 ** k - 1) * num) / (den * mp.factorial(2 * k))
            if family == "tan" and k % 2 == 0:
                c = -c
        else:
            continue
        terms.append((p, float(c)))
    return tuple(terms)


def series_matrix_eval(alg: str, family: str, order: int, x) -> tuple[np.ndarray, float]:
    """The truncated series on ``L(x)``, and the sum of absolute term sizes.

    The second value is the scale against which rounding differences are
    relative: the largest term magnitudes a summation can cancel.
    """
    lx = left_matrix(alg, x)
    v = np.eye(8)[:, 0]
    acc = np.zeros(8)
    scale = 0.0
    coeffs = dict(series_terms(family, order))
    for p in range(order + 1):
        if p in coeffs:
            acc += coeffs[p] * v
            scale += abs(coeffs[p]) * float(np.abs(v).max())
        v = lx @ v
    return acc, scale


# ---------------------------------------------------------------- spin

def spin_oracle(b0_start, b0_end, duration, samples, omega, omega1, sigma) -> list:
    """Stepped spin-down trace of the rotating-field model at oracle precision.

    Follows the stepped model: the rotating-frame spinor ``chi`` advances by
    ``exp(B_k dt)`` with ``B_k = e12 (b0_k + sigma omega)/2 + e23 omega1/2``
    (gamma = 1), the lab spinor is ``exp(-sigma e12 omega t / 2) chi`` and
    the spin-down probability is ``<e13 psi>_0^2 + <e13 psi e12>_0^2``.
    Times and fields are the float64 grid the library itself uses.
    """
    import mpmath as mp

    times = np.linspace(0.0, duration, samples)
    b0 = np.linspace(b0_start, b0_end, samples)
    # Spinors, rotors and the probes e12, e13 all live in the even subalgebra.
    even = [e for e in PRODUCT["cl30"] if GRADES[e[0]] % 2 == 0 and GRADES[e[1]] % 2 == 0]
    with mp.workdps(ORACLE_DPS):
        def mul(x, y):
            out = [mp.mpf(0)] * 8
            for i, j, k, s in even:
                out[k] += s * x[i] * y[j]
            return out

        def rotor(e12, e23):
            # exp of a CL30 bivector B: B^2 = -|B|^2.
            norm = mp.sqrt(e12 * e12 + e23 * e23)
            ratio = mp.sin(norm) / norm if norm else mp.mpf(1)
            return [mp.cos(norm), 0, 0, 0, ratio * e12, 0, ratio * e23, 0]

        e13 = [0, 0, 0, 0, 0, 1, 0, 0]
        e12 = [0, 0, 0, 0, 1, 0, 0, 0]
        chi = [mp.mpf(1)] + [mp.mpf(0)] * 7
        w1 = mp.mpf(float(omega1))
        out = []
        for k in range(samples):
            t = mp.mpf(float(times[k]))
            psi = mul(rotor(-sigma * mp.mpf(float(omega)) * t / 2, 0), chi)
            lead = mul(e13, psi)
            s, c = lead[0], mul(lead, e12)[0]
            out.append(s * s + c * c)
            if k + 1 < samples:
                dt = mp.mpf(float(times[k + 1])) - t
                w = mp.mpf(float(b0[k])) + sigma * mp.mpf(float(omega))
                chi = mul(rotor(w * dt / 2, w1 * dt / 2), chi)
        return out

