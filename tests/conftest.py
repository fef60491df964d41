import functools
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from cl3 import Multivector, Signature

ALL_SIGS = tuple(Signature)


@functools.lru_cache(maxsize=None)
def bench_reference():
    """``bench/reference.py``, the benchmark's independent 50-digit oracle,
    imported by path so the tests and the benchmark share one copy."""
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rand_mv(rng, sig, scale=1.0):
    return Multivector(sig, rng.uniform(-scale, scale, 8))


def max_err(x, y):
    a = x.c if isinstance(x, Multivector) else np.asarray(x, dtype=float)
    b = y.c if isinstance(y, Multivector) else np.asarray(y, dtype=float)
    return float(np.abs(a - b).max())


def cl03_degenerate(rng, which):
    """Random CL03 multivector on one of the two degenerate factor loci."""
    v = rng.uniform(-1.0, 1.0, 3)
    c = np.zeros(8)
    c[0], c[7] = rng.uniform(-0.5, 0.5, 2)
    c[1:4] = v
    if which == "plus":  # a3 = a12, a2 = -a13, a1 = a23
        c[4], c[5], c[6] = c[3], -c[2], c[1]
    else:  # a3 = -a12, a2 = a13, a1 = -a23
        c[4], c[5], c[6] = -c[3], c[2], -c[1]
    return Multivector(Signature.CL03, c)


def null_vector_bivector(rng, sig):
    """Random CL30/CL12 multivector whose vector+bivector square vanishes."""
    while True:
        a = rng.uniform(-1.0, 1.0, 3)
        w = rng.uniform(-1.0, 1.0, 3)
        pair = np.array([a[2], -a[1], a[0]])
        w -= pair * (w @ pair) / (pair @ pair)
        if sig is Signature.CL30:
            norm_a = a @ a
            norm_w = w @ w
        else:  # CL12: a1^2 - a2^2 - a3^2 + a12^2 + a13^2 - a23^2 = 0
            norm_a = a[0] ** 2 - a[1] ** 2 - a[2] ** 2
            norm_w = w[0] ** 2 + w[1] ** 2 - w[2] ** 2
            if norm_a * norm_w >= 0.0:
                continue
        if norm_w == 0.0:
            continue
        w *= math.sqrt(abs(norm_a) / abs(norm_w))
        c = np.zeros(8)
        c[0], c[7] = rng.uniform(-0.5, 0.5, 2)
        c[1:4] = a
        c[4:7] = w
        return Multivector(sig, c)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
