"""The four benchmark workloads: inputs from a seed, ops, and output checks.

Every op calls the library through attributes of the ``cl3`` package (or
runs the ``cl3.cli`` module in a child process), so the traced run sees
each call through the wrappers installed by ``tracing.py``.

A workload is a cycle of ``Op`` items built from the seed.  The closed loop
in ``run.py`` repeats the cycle for the run's duration and keeps the
outputs of the first pass (all passes for the two process-sized
workloads), which ``check`` verifies after timing stops.  ``oracle`` then
measures accuracy in digits on a fixed per-class sample of the kept
outputs.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import cl3
from cl3 import Multivector, NonInvertibleError, NormUndefinedError, Signature

ROOT = Path(__file__).resolve().parent.parent
SIGS = {"cl30": Signature.CL30, "cl03": Signature.CL03, "cl12": Signature.CL12, "cl21": Signature.CL21}
ALGS = tuple(SIGS)
TRIG_ALGS = ("cl30", "cl12")  # e123^2 = -1: closed-form sin/cos/tan exist
BRANCHES = ("generic", "plus_degenerate", "minus_degenerate", "both_degenerate")

# Tolerances of the hard checks, as normwise relative errors.  The float64
# reference agrees with the library to about 1e-13 on these inputs; a
# perturbed result (the self-test uses 1e-6) fails.
FLOAT_REF_TOL = 1e-9
SERIES_TOL = 1e-12
PROBABILITY_TOL = 1e-12
PEAK_TOL = 0.25


class Op:
    """One call of the cycle: ``call(*args)``, plus what the checks need."""

    __slots__ = ("kind", "alg", "cls", "call", "args", "expect")

    def __init__(self, kind, alg, cls, call, args, expect=()):
        self.kind = kind      # what is computed, e.g. "exp", "series:tanh", "cli:eval:inv"
        self.alg = alg        # algebra name
        self.cls = cls        # input class
        self.call = call
        self.args = args
        self.expect = expect  # exception types that are a correct outcome


# ------------------------------------------------------------ input classes

def _generic(rng, lo=-3.0, hi=1.0):
    """Eight coefficients with a magnitude log-spread over 10**lo .. 10**hi."""
    return rng.uniform(-1.0, 1.0, 8) * 10.0 ** rng.uniform(lo, hi)


def _degenerate(rng, alg):
    """A multivector on a degenerate exponential branch.

    CL03 uses the two factor loci and CL30/CL12 a nilpotent vector+bivector
    part, as the test-suite families ``cl03_degenerate`` and
    ``null_vector_bivector`` do; CL21 puts one signed factor square at zero.
    """
    c = np.zeros(8)
    c[0], c[7] = rng.uniform(-0.5, 0.5, 2)
    a = rng.uniform(-1.0, 1.0, 3)
    c[1:4] = a
    plus = rng.random() < 0.5
    if alg == "cl03":
        c[4:7] = (a[2], -a[1], a[0]) if plus else (-a[2], a[1], -a[0])
    elif alg == "cl21":
        a12 = rng.uniform(-1.0, 1.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        if plus:  # (a3 - a12)^2 = (a2 - a13)^2 + (a1 + a23)^2
            r = abs(a[2] - a12)
            c[4:7] = (a12, a[1] - r * math.cos(theta), r * math.sin(theta) - a[0])
        else:  # (a3 + a12)^2 = (a2 + a13)^2 + (a1 - a23)^2
            r = abs(a[2] + a12)
            c[4:7] = (a12, r * math.cos(theta) - a[1], a[0] - r * math.sin(theta))
    else:
        while True:
            w = rng.uniform(-1.0, 1.0, 3)
            pair = np.array([a[2], -a[1], a[0]])
            w -= pair * (w @ pair) / (pair @ pair)
            if alg == "cl30":
                norm_a, norm_w = a @ a, w @ w
            else:  # CL12: a1^2 - a2^2 - a3^2 + a12^2 + a13^2 - a23^2 = 0
                norm_a = a[0] ** 2 - a[1] ** 2 - a[2] ** 2
                norm_w = w[0] ** 2 + w[1] ** 2 - w[2] ** 2
            if norm_a * norm_w < 0.0 or (alg == "cl30" and norm_w > 0.0):
                break
            a = rng.uniform(-1.0, 1.0, 3)
            c[1:4] = a
        c[4:7] = w * math.sqrt(abs(norm_a) / abs(norm_w))
    return c


def _near_degenerate(rng, alg):
    c = _degenerate(rng, alg)
    return c + rng.uniform(-1.0, 1.0, 8) * 10.0 ** rng.uniform(-10.0, -6.0)


def _cl03_large(s):
    """The CL03 large-scale family a1 = (s+3)/2, a23 = (s-3)/2."""
    c = np.zeros(8)
    c[1], c[6] = (s + 3.0) / 2.0, (s - 3.0) / 2.0
    return c


def _singular(rng, alg):
    """(1 + u) * y with u^2 = 1, so the determinant is zero."""
    from reference import product

    u = np.zeros(8)
    if alg == "cl30":
        v = rng.normal(size=3)
        u[1:4] = v / np.linalg.norm(v)
    elif alg == "cl12":  # a1^2 - a2^2 - a3^2 = 1
        u[2:4] = rng.uniform(-1.0, 1.0, 2)
        u[1] = math.sqrt(1.0 + u[2] ** 2 + u[3] ** 2)
    elif alg == "cl21":  # a1^2 + a2^2 - a3^2 = 1
        u[3] = rng.uniform(-1.0, 1.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        r = math.sqrt(1.0 + u[3] ** 2)
        u[1], u[2] = r * math.cos(theta), r * math.sin(theta)
    else:  # CL03: only the pseudoscalar squares to +1
        u[7] = 1.0
    u[0] = 1.0
    return product(alg, u, _generic(rng, -1.0, 0.5))


def _make(rng, alg, cls):
    if cls == "generic":
        return _generic(rng)
    if cls == "degenerate":
        return _degenerate(rng, alg)
    if cls == "near_degenerate":
        return _near_degenerate(rng, alg)
    if cls == "singular":
        return _singular(rng, alg)
    return _cl03_large(10.0 ** rng.uniform(3.0, 7.0))


def _inputs(rng, alg, counts):
    """Inputs with exact class counts, in a seeded order."""
    classes = [cls for cls, n in counts.items() for _ in range(n)]
    rng.shuffle(classes)
    return [(cls, _make(rng, alg, cls)) for cls in classes]


def _interleave(slots):
    """Round-robin over the slots so every op kind recurs at a fixed stride."""
    return [op for group in zip(*slots) for op in group]


def _digits_sample(rng, ops, outputs, per_class, wanted=lambda op: True):
    """A seeded sample of kept (op, output) pairs with a fixed count per class."""
    by_class = {}
    for op, out in zip(ops, outputs):
        if wanted(op):
            by_class.setdefault(op.cls, []).append((op, out))
    sample = []
    for cls, n in per_class.items():
        pool = by_class.get(cls, [])
        picks = rng.choice(len(pool), size=min(n, len(pool)), replace=False) if pool else []
        sample.extend(pool[int(i)] for i in sorted(picks))
    return sample


def _branch_shares(mvs):
    counts = Counter(cl3.exp_factors(x).branch.value.replace("-", "_") for x in mvs)
    total = sum(counts.values()) or 1
    return {b: counts.get(b, 0) / total for b in BRANCHES}


def _tolerance(alg, fn, x):
    """FLOAT_REF_TOL, scaled for ratios by the condition number of what they
    invert: on these inputs the error relative to the float64 reference stays
    below 1e-11 times that condition number."""
    from reference import denominator

    den = denominator(alg, fn, x)
    return FLOAT_REF_TOL * (max(1.0, float(np.linalg.cond(den))) if den is not None else 1.0)


def _check_noninvertible(alg, fn, x, where):
    """A NonInvertibleError is a correct outcome only for a near-singular denominator."""
    from reference import denominator, near_singular

    den = denominator(alg, fn, x)
    if den is None or not near_singular(alg, den):
        return [f"{where}: NonInvertibleError for an invertible denominator"]
    return []


def _close(got, want, tol):
    from reference import rel_err

    return np.all(np.isfinite(got)) and rel_err(got, want) <= tol


# ------------------------------------------------------------ library calls

def _exp(x):
    return cl3.exp(x)


def _sinh(x):
    return cl3.hyperbolic_exact(x, "sinh")


def _cosh(x):
    return cl3.hyperbolic_exact(x, "cosh")


def _tanh(x):
    return cl3.ratio_exact(x, "tanh")


def _sin(x):
    return cl3.trig_exact(x, "sin")


def _cos(x):
    return cl3.trig_exact(x, "cos")


def _tan(x):
    return cl3.ratio_exact(x, "tan")


def _inverse(x):
    return cl3.inverse(x).inverse


def _determinant(x):
    return cl3.determinant(x)


def _remap_exp(x, table):
    """exp in CL12 through the CL30 -> CL12 isomorphism, mapped back."""
    return cl3.basis_remap(cl3.exp(cl3.basis_remap(x, table)), table)


CLOSED = {"exp": _exp, "sinh": _sinh, "cosh": _cosh, "tanh": _tanh,
          "sin": _sin, "cos": _cos, "tan": _tan}
SCALAR_CALLS = dict(CLOSED, inverse=_inverse, determinant=_determinant)


def _closed_forms(alg):
    """Closed forms that exist in an algebra: sin/cos/tan need e123^2 = -1."""
    return ("exp", "sinh", "cosh", "tanh") + (("sin", "cos", "tan") if alg in TRIG_ALGS else ())


def _as_vector(out):
    return np.array([out]) if isinstance(out, float) else out.c


class Workload:
    name = ""
    tail_pct = 99.0        # latency_tail_us percentile; see BENCHMARK.json
    keep_all = False       # keep every output, not only the first pass

    def build(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> None:
        """One small call of each op kind: set-up work a user pays once."""
        raise NotImplementedError

    def check(self, ops, outputs) -> list[str]:
        """Hard checks; returns one message per failed output."""
        raise NotImplementedError

    def oracle(self, seed, ops, outputs) -> tuple[list[float], list[str]]:
        """Digits of a fixed per-class sample, and coverage failures."""
        raise NotImplementedError

    def layer_extras(self, ops, outputs) -> dict:
        """Input properties and useful-work ratios for the per-layer report."""
        return {}


def _warm_scalar():
    for alg, sig in SIGS.items():
        x = Multivector(sig, [0.3, 0.2, -0.1, 0.4, 0.1, -0.2, 0.3, 0.1])
        for name in _closed_forms(alg) + ("inverse", "determinant"):
            SCALAR_CALLS[name](x)
        if alg == "cl30":
            _remap_exp(x, "cl30_cl12_1")


class ScalarMix(Workload):
    name = "scalar_mix"
    tail_pct = 99.0

    def build(self, seed):
        rng = np.random.default_rng([seed, 1])
        slots = []
        for alg in ALGS:
            for kind in _closed_forms(alg) + ("inverse", "determinant"):
                counts = {"generic": 24, "near_degenerate": 4, "degenerate": 4}
                if alg == "cl03":
                    counts["generic"] -= 4
                    counts["cl03_large"] = 4
                if kind == "inverse":
                    counts["generic"] -= 4
                    counts["singular"] = 4
                inputs = _inputs(rng, alg, counts)
                if alg == "cl03" and kind == "exp":
                    # The two scales at which the known CL03 defect is documented.
                    large = [i for i, (cls, _) in enumerate(inputs) if cls == "cl03_large"]
                    inputs[large[0]] = ("cl03_large", _cl03_large(1e5))
                    inputs[large[1]] = ("cl03_large", _cl03_large(1e7))
                # Ratios and inverses may meet a singular denominator; check()
                # accepts the typed error only where the reference agrees.
                expect = (NonInvertibleError,) if kind in ("inverse", "tanh", "tan") else ()
                slots.append([
                    Op(kind, alg, cls, SCALAR_CALLS[kind], (Multivector(SIGS[alg], c),), expect)
                    for cls, c in inputs
                ])
        remap = []
        for cls, c in _inputs(rng, "cl30", {"generic": 24, "near_degenerate": 4, "degenerate": 4}):
            table = "cl30_cl12_1" if rng.random() < 0.5 else "cl30_cl12_2"
            remap.append(Op("remap_exp", "cl30", cls, _remap_exp,
                            (Multivector(Signature.CL30, c), table)))
        slots.append(remap)
        return _interleave(slots)

    def warmup(self):
        _warm_scalar()

    def check(self, ops, outputs):
        from reference import float_eval

        bad = []
        for op, out in zip(ops, outputs):
            x = op.args[0]
            where = f"{op.kind} {op.alg} {op.cls} {x.c.tolist()}"
            if isinstance(out, NonInvertibleError):
                bad += _check_noninvertible(op.alg, op.kind, x.c, where)
                continue
            if isinstance(out, BaseException):
                continue  # counted as an unexpected exception by the loop
            if op.cls == "singular":
                bad.append(f"{where}: singular input, but no NonInvertibleError")
                continue
            if op.kind == "remap_exp":
                if not _close(out.c, cl3.exp(x).c, FLOAT_REF_TOL):
                    bad.append(f"{where}: remap round trip differs from direct exp")
                continue
            got = _as_vector(out)
            if op.cls == "cl03_large":
                # Accuracy here is the reported defect (accurate_digits_min),
                # not a hard check; the output must still be finite.
                if not np.all(np.isfinite(got)):
                    bad.append(f"{where}: non-finite output")
                continue
            want = float_eval(op.alg, op.kind, x.c)
            if op.kind == "determinant":
                ok = abs(got[0] - want[0]) <= FLOAT_REF_TOL * float(np.abs(x.c).sum()) ** 4
            else:
                ok = _close(got, want, _tolerance(op.alg, op.kind, x.c))
            if not ok:
                bad.append(f"{where}: differs from the float64 reference")
        return bad

    def oracle(self, seed, ops, outputs):
        from reference import oracle_digits, oracle_eval

        rng = np.random.default_rng([seed, 2])
        per_class = {"generic": 6, "near_degenerate": 3, "degenerate": 3, "singular": 2}
        sample = _digits_sample(rng, ops, outputs, per_class, lambda op: op.kind != "remap_exp")
        # The CL03 large-scale class is sampled at the two documented scales
        # only, so that the known defect reads the same on every seed.
        documented = (_cl03_large(1e5)[1], _cl03_large(1e7)[1])
        fixed = [(op, out) for op, out in zip(ops, outputs)
                 if op.cls == "cl03_large" and op.kind == "exp" and op.args[0].c[1] in documented]
        sample += fixed
        digits, bad = [], []
        for op, out in sample:
            x = op.args[0].c
            if op.cls == "singular":
                det = float(oracle_eval(op.alg, "determinant", x)[0])
                if abs(det) > 1e-12 * float(np.abs(x).sum()) ** 4:
                    bad.append(f"singular-class input has determinant {det:.3e}")
                continue
            if isinstance(out, BaseException):
                continue
            digits.append(oracle_digits(_as_vector(out), oracle_eval(op.alg, op.kind, x)))
        covered = {op.cls for op, _ in sample}
        missing = {op.cls for op in ops} - covered
        if missing:
            bad.append(f"oracle sample misses input classes {sorted(missing)}")
        if len(fixed) != 2:
            bad.append("oracle sample misses the CL03 inputs at s=1e5 and s=1e7")
        return digits, bad

    def layer_extras(self, ops, outputs):
        exp_kinds = ("exp", "sinh", "cosh", "tanh", "remap_exp")
        inverses = [out for op, out in zip(ops, outputs) if op.kind == "inverse"]
        return {
            "branch_share": _branch_shares(op.args[0] for op in ops if op.kind in exp_kinds),
            "noninvertible_share": sum(isinstance(o, NonInvertibleError) for o in inverses) / len(inverses),
        }


def _normalized(x):
    """``normalize(x, "ceil")``; a negative determinant (common in CL21) has no
    real fourth root, so its magnitude sets the divisor instead."""
    try:
        return cl3.normalize(x, "ceil")
    except NormUndefinedError:
        return cl3.normalize(x, float(max(1, math.ceil(abs(cl3.determinant(x)) ** 0.25))))


def _series_compare(x, family, specs):
    xs, _ = _normalized(x)
    closed = CLOSED[family](xs)
    return xs, closed, [cl3.series_eval(xs, spec, return_last_term=True) for spec in specs]


class SeriesCompare(Workload):
    name = "series_compare"
    tail_pct = 90.0
    orders = (20, 40)

    def build(self, seed):
        rng = np.random.default_rng([seed, 1])
        slots = []
        for alg in ALGS:
            for fam in _closed_forms(alg):
                specs = tuple(cl3.SeriesSpec(cl3.SeriesFamily(fam), n) for n in self.orders)
                counts = {"generic": 8, "near_degenerate": 2, "degenerate": 2}
                slots.append([
                    Op("series:" + fam, alg, cls, _series_compare, (Multivector(SIGS[alg], c), fam, specs))
                    for cls, c in _inputs(rng, alg, counts)
                ])
        return _interleave(slots)

    def warmup(self):
        for alg, sig in SIGS.items():
            x = Multivector(sig, [0.3, 0.2, -0.1, 0.4, 0.1, -0.2, 0.3, 0.1])
            for fam in _closed_forms(alg):
                specs = tuple(cl3.SeriesSpec(cl3.SeriesFamily(fam), n) for n in self.orders)
                _series_compare(x, fam, specs)

    def check(self, ops, outputs):
        from reference import float_eval, series_matrix_eval

        bad = []
        for op, out in zip(ops, outputs):
            if isinstance(out, BaseException):
                continue
            xs, closed, series = out
            fam = op.args[1]
            if not _close(closed.c, float_eval(op.alg, fam, xs.c), FLOAT_REF_TOL):
                bad.append(f"{fam} {op.alg} {op.cls}: closed form differs from float64 reference")
            for order, (value, delta) in zip(self.orders, series):
                want, scale = series_matrix_eval(op.alg, fam, order, xs.c)
                err = float(np.abs(value.c - want).max())
                if not (math.isfinite(delta) and err <= SERIES_TOL * scale):
                    bad.append(f"{fam}[{order}] {op.alg} {op.cls}: series differs from matrix polynomial")
        return bad

    def oracle(self, seed, ops, outputs):
        from reference import oracle_digits, oracle_eval

        rng = np.random.default_rng([seed, 2])
        sample = _digits_sample(rng, ops, outputs, {"generic": 12, "near_degenerate": 4, "degenerate": 4})
        digits = []
        for op, out in sample:
            if not isinstance(out, BaseException):
                xs, closed, _ = out
                digits.append(oracle_digits(closed.c, oracle_eval(op.alg, op.args[1], xs.c)))
        missing = {op.cls for op in ops} - {op.cls for op, _ in sample}
        return digits, [f"oracle sample misses input classes {sorted(missing)}"] if missing else []

    def layer_extras(self, ops, outputs):
        done = [out for out in outputs if not isinstance(out, BaseException)]
        deltas = [delta for _, _, series in done for _, delta in series]
        return {
            "branch_share": _branch_shares(xs for xs, _, _ in done),
            "converged_share": sum(d <= 1e-6 for d in deltas) / max(1, len(deltas)),
        }


# The paper's ramp: b0 from -2 to 2 over T = 500 at omega = 1, omega1 = 0.05.
RAMP = dict(b0_start=-2.0, b0_end=2.0, duration=500.0, samples=5000, omega=1.0, omega1=0.05)


def _sweep(sweep, sigma):
    return cl3.sweep_ramp(sweep, sigma, "stepped"), cl3.sweep_ramp(sweep, sigma, "closed")


class SpinSweep(Workload):
    name = "spin_sweep"
    tail_pct = 75.0
    keep_all = True

    def build(self, seed):
        rng = np.random.default_rng([seed, 1])
        sweep = cl3.RampSweep(**RAMP)
        sigmas = [-1, 1] if rng.random() < 0.5 else [1, -1]
        return [Op("sweep", "cl30", f"sigma{s:+d}", _sweep, (sweep, s)) for s in sigmas]

    def warmup(self):
        small = cl3.RampSweep(**dict(RAMP, samples=8))
        for sigma in (-1, 1):
            _sweep(small, sigma)

    def check(self, ops, outputs):
        bad = []
        first = {}
        for op, out in zip(ops, outputs):
            if isinstance(out, BaseException):
                continue
            sweep, sigma = op.args
            if sigma in first:
                # Every repeat of a sweep must return the first one's trace.
                if not all(np.array_equal(a.p_down, b.p_down) for a, b in zip(out, first[sigma])):
                    bad.append(f"sigma={sigma}: sweep is not deterministic")
                continue
            first[sigma] = out
            stepped, closed = out
            for name, trace in (("stepped", stepped), ("closed", closed)):
                p = trace.p_down
                if not (np.all(np.isfinite(p)) and p.min() >= 0.0 and p.max() <= 1.0):
                    bad.append(f"sigma={sigma}: {name} probability leaves [0, 1]")
            # Resonance sits where sigma*omega + b0 = 0.
            peak = float(stepped.b0[int(np.argmax(stepped.p_down))])
            if abs(peak + sigma * sweep.omega) > PEAK_TOL:
                bad.append(f"sigma={sigma}: stepped peak at b0={peak:.3f}, resonance at {-sigma * sweep.omega}")
            b1 = sweep.omega1 / sweep.gamma
            for t, b, p in zip(closed.times, closed.b0, closed.p_down):
                cfg = cl3.FieldConfig(float(b), b1, sweep.omega, sigma, sweep.gamma)
                if abs(p - cl3.down_probability(cfg, float(t))) > PROBABILITY_TOL:
                    bad.append(f"sigma={sigma}: closed sample at t={t} differs from down_probability")
                    break
        return bad

    def oracle(self, seed, ops, outputs):
        from reference import oracle_digits, spin_oracle

        digits, seen = [], set()
        for op, out in zip(ops, outputs):
            sweep, sigma = op.args
            if sigma in seen or isinstance(out, BaseException):
                continue
            seen.add(sigma)
            want = spin_oracle(sweep.b0_start, sweep.b0_end, sweep.duration, sweep.samples,
                               sweep.omega, sweep.omega1, sigma)
            digits.append(oracle_digits(out[0].p_down, want))
        return digits, [] if seen == {-1, 1} else ["oracle sample misses a sigma"]

    def layer_extras(self, ops, outputs):
        # Branch of every rotating-frame propagator exponential of the ramp.
        sweep = ops[0].args[0]
        times = np.linspace(0.0, sweep.duration, sweep.samples)
        b0 = np.linspace(sweep.b0_start, sweep.b0_end, sweep.samples)
        dt = np.diff(times)
        mvs = [
            Multivector(Signature.CL30, [0, 0, 0, 0, 0.5 * (b + s * sweep.omega) * d, 0, 0.5 * sweep.omega1 * d, 0])
            for s in (-1, 1) for b, d in zip(b0[:-1], dt)
        ]
        return {"branch_share": _branch_shares(mvs)}


# ------------------------------------------------------------ CLI processes

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env) -> tuple[int, str, str, int]:
    """Run one child to completion: (exit code, stdout, stderr, peak RSS in KiB).

    The outputs here are a few KiB, well inside a pipe buffer, so reading
    stdout before stderr cannot block the child.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss


CLI_EVAL = ("exp", "sinh", "cosh", "tanh", "sin", "cos", "tan", "inv", "det")
CLI_COMPARE = ("exp", "sinh", "cosh", "tanh", "sin", "cos", "tan")


def _literal(c, style, divisor):
    if style == "comma":
        body = ",".join(repr(float(v)) for v in c * divisor)
        return body + (f" / {divisor}" if divisor != 1 else "")
    terms = []
    for name, v in zip(cl3.BLADE_NAMES, c):
        if v == 0.0:
            continue
        mag = repr(abs(float(v)))
        terms.append(("- " if v < 0 else "+ ") + (mag if name == "1" else f"{mag}*{name}"))
    return " ".join(terms).removeprefix("+ ")


def cli_expected(op) -> dict:
    """The JSON the CLI must print, computed in this process by the library."""
    cmd, fn, alg, x, terms = op.args[1]
    if cmd == "eval" and fn == "det":
        return {"value": cl3.determinant(x)}
    if cmd == "eval":
        mv = _inverse(x) if fn == "inv" else CLOSED[fn](x)
        return {"algebra": alg, "coeffs": [float(v) for v in mv.c], "basis": list(cl3.BLADE_NAMES)}
    closed = CLOSED[fn](x)
    series, _ = cl3.series_eval(x, cl3.SeriesSpec(cl3.SeriesFamily(fn), terms), return_last_term=True)
    return {
        "algebra": alg, "fn": fn, "terms": terms,
        "closed": [float(v) for v in closed.c],
        "series": [float(v) for v in series.c],
        "max_delta": float(np.abs(closed.c - series.c).max()),
        "basis": list(cl3.BLADE_NAMES),
    }


class CliProcess(Workload):
    name = "cli_process"
    tail_pct = 75.0
    keep_all = True
    commands = 24
    # Set by run.py for the traced run: the children then run under
    # cli_child.py, which wraps the library and reports its spans.
    traced = False

    def build(self, seed):
        rng = np.random.default_rng([seed, 1])
        env = child_env()
        ops = []
        for k in range(self.commands):
            # Every third command is a compare; the rest cycle the eval functions.
            cmd = "compare" if k % 3 == 2 else "eval"
            fn = CLI_COMPARE[k // 3 % len(CLI_COMPARE)] if cmd == "compare" else CLI_EVAL[(k - k // 3) % len(CLI_EVAL)]
            algs = TRIG_ALGS if fn in ("sin", "cos", "tan") else ALGS
            alg = algs[int(rng.integers(len(algs)))]
            cls = "degenerate" if k % 8 == 5 else "generic"
            c = _degenerate(rng, alg) if cls == "degenerate" else _generic(rng, -2.0, 0.3)
            style = "comma" if k % 2 == 0 else "terms"
            divisor = int(rng.integers(2, 20)) if style == "comma" and k % 4 == 0 else 1
            text = _literal(c, style, divisor)
            # The CLI multiplies nothing back: it divides the literal by the divisor.
            x = Multivector(SIGS[alg], (c * divisor) / divisor if divisor != 1 else c)
            terms = int(rng.choice((6, 12, 20)))
            argv = [cmd, "--algebra", alg, "--fn", fn, f"--mv={text}", "--format", "json"]
            if cmd == "compare":
                argv += ["--terms", str(terms)]
            ops.append(Op(f"cli:{cmd}:{fn}", alg, cls, self._run, (argv, (cmd, fn, alg, x, terms), env)))
        return ops

    def _run(self, argv, spec, env):
        if self.traced:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py"))]
        else:
            cmd = [sys.executable, "-m", "cl3.cli"]
        return run_child(cmd + argv, env)

    def warmup(self):
        import contextlib
        import io

        import cl3.cli

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cl3.cli.main(["eval", "--fn", "exp", "--mv", "1,2,3,4,5,6,7,8 / 17", "--format", "json"])
            cl3.cli.main(["compare", "--fn", "tanh", "--terms", "6", "--mv", "1 + 2*e1 - 3*e23", "--format", "json"])

    def check(self, ops, outputs):
        bad = []
        expected = {}
        for op, out in zip(ops, outputs):
            if isinstance(out, BaseException):
                continue
            rc, stdout, stderr, _ = out
            if rc != 0:
                bad.append(f"{' '.join(op.args[0])}: exit code {rc}: {stderr.strip()[-200:]}")
                continue
            if id(op) not in expected:
                expected[id(op)] = cli_expected(op)
            try:
                got = json.loads(stdout)
            except json.JSONDecodeError:
                bad.append(f"{' '.join(op.args[0])}: output is not JSON")
                continue
            if got != expected[id(op)]:
                bad.append(f"{' '.join(op.args[0])}: JSON differs from the in-process result")
        return bad

    def oracle(self, seed, ops, outputs):
        from reference import oracle_digits, oracle_eval

        rng = np.random.default_rng([seed, 2])
        first = {}
        for op, out in zip(ops, outputs):
            first.setdefault(id(op), (op, out))
        sample = _digits_sample(rng, *zip(*first.values()), {"generic": 4, "degenerate": 2})
        digits = []
        names = {"inv": "inverse", "det": "determinant"}
        for op, out in sample:
            if isinstance(out, BaseException) or out[0] != 0:
                continue
            cmd, fn, alg, x, _ = op.args[1]
            got = json.loads(out[1])
            values = [got["value"]] if "value" in got else got["coeffs" if cmd == "eval" else "closed"]
            digits.append(oracle_digits(values, oracle_eval(alg, names.get(fn, fn), x.c)))
        missing = {op.cls for op in ops} - {op.cls for op, _ in sample}
        return digits, [f"oracle sample misses input classes {sorted(missing)}"] if missing else []

    def layer_extras(self, ops, outputs):
        xs = [op.args[1][3] for op in ops if op.args[1][1] not in ("inv", "det")]
        return {"branch_share": _branch_shares(xs)}


WORKLOADS = {w.name: w for w in (ScalarMix(), SeriesCompare(), SpinSweep(), CliProcess())}
