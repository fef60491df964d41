"""Relabeling tables: round trips, multiplicativity, exponential transport."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cl3
from cl3 import (
    REMAP_TABLES,
    EvenMultivector,
    Multivector,
    SeriesFamily,
    SeriesSpec,
    Signature,
    basis_remap,
    blade,
    even_geometric_product,
    exp,
    get_remap_table,
    series_eval,
)
from cl3.remap import _solve_table
from conftest import max_err, rand_mv

CL3030_TABLES = ("cl30_cl12_1", "cl30_cl12_2")
EVEN_TABLES = ("cl13_even_cl30_1", "cl13_even_cl30_2", "cl31_even_cl30_1", "cl31_even_cl30_2")

# The slot permutations and solved signs are deterministic; freeze them so a
# change to the solver cannot silently reshuffle an interface.
EXPECTED_TABLES = {
    "cl30_cl12_1": ((0, 1, 5, 4, 3, 2, 6, 7), (1, 1, 1, 1, 1, 1, 1, 1)),
    "cl30_cl12_2": ((0, 3, 5, 6, 1, 2, 4, 7), (1, 1, 1, -1, -1, 1, 1, 1)),
    "cl13_even_cl30_1": ((0, 1, 2, 3, 4, 5, 6, 7), (1, 1, 1, -1, -1, 1, 1, 1)),
    "cl13_even_cl30_2": ((0, 3, 2, 1, 6, 5, 4, 7), (1, 1, 1, 1, 1, 1, 1, 1)),
    "cl31_even_cl30_1": ((0, 3, 5, 6, 1, 2, 4, 7), (1, 1, 1, 1, 1, 1, 1, 1)),
    "cl31_even_cl30_2": ((0, 6, 5, 3, 4, 2, 1, 7), (1, 1, 1, -1, -1, 1, 1, 1)),
}


def test_table_registry_snapshot():
    assert set(REMAP_TABLES) == set(EXPECTED_TABLES)
    for name, (slots, signs) in EXPECTED_TABLES.items():
        table = get_remap_table(name)
        assert table.src_slot == slots
        assert table.sign == signs


def test_unknown_table_errors():
    with pytest.raises(ValueError):
        get_remap_table("cl30_cl21_1")


def test_variant_one_moves_named_slots():
    t = get_remap_table("cl30_cl12_1")
    x = blade(Signature.CL30, "e2", 3.0) + blade(Signature.CL30, "e3", -2.0)
    y = basis_remap(x, t)
    assert y.sig is Signature.CL12
    assert y.c[5] == 3.0   # e2 coefficient lands on e13
    assert y.c[4] == -2.0  # e3 coefficient lands on e12
    assert np.count_nonzero(y.c) == 2


@pytest.mark.parametrize("name", CL3030_TABLES)
def test_roundtrip_is_exact(name, rng):
    t = get_remap_table(name)
    for _ in range(50):
        x = rand_mv(rng, Signature.CL30)
        assert basis_remap(basis_remap(x, t), t) == x


@pytest.mark.parametrize("name", CL3030_TABLES)
def test_remap_is_multiplicative(name, rng):
    t = get_remap_table(name)
    for _ in range(50):
        x, y = rand_mv(rng, Signature.CL30), rand_mv(rng, Signature.CL30)
        lhs = basis_remap(x * y, t)
        rhs = basis_remap(x, t) * basis_remap(y, t)
        assert max_err(lhs, rhs) <= 1e-12 * max(1.0, float(np.abs(lhs.c).max()))


@pytest.mark.parametrize("name", CL3030_TABLES)
def test_exp_commutes_with_remap(name, rng):
    t = get_remap_table(name)
    for _ in range(100):
        x = rand_mv(rng, Signature.CL30)
        assert max_err(basis_remap(exp(x), t), exp(basis_remap(x, t))) <= 1e-10


@pytest.mark.parametrize("name", EVEN_TABLES)
def test_even_tables_are_isomorphisms(name, rng):
    t = get_remap_table(name)
    for _ in range(50):
        a = EvenMultivector(t.src, rng.uniform(-1, 1, 8))
        b = EvenMultivector(t.src, rng.uniform(-1, 1, 8))
        lhs = basis_remap(even_geometric_product(a, b), t)
        rhs = basis_remap(a, t) * basis_remap(b, t)
        assert max_err(lhs, rhs) <= 1e-12 * max(1.0, float(np.abs(lhs.c).max()))
        back = basis_remap(basis_remap(a, t), t)
        assert isinstance(back, EvenMultivector)
        assert np.array_equal(back.c, a.c)


def _even_series_exp(x, order=30):
    import math

    acc = EvenMultivector(x.algebra, np.eye(8)[0] / math.factorial(order))
    for k in range(order - 1, -1, -1):
        acc = even_geometric_product(acc, x)
        acc = EvenMultivector(x.algebra, acc.c + np.eye(8)[0] / math.factorial(k))
    return acc


@pytest.mark.parametrize("name", EVEN_TABLES)
def test_even_exponential_through_remap(name, rng):
    # Exponential of an even 4D element: series in its own product versus
    # transport through the 3D closed form and back.
    t = get_remap_table(name)
    for _ in range(20):
        x = EvenMultivector(t.src, rng.uniform(-1, 1, 8))
        via_remap = basis_remap(exp(basis_remap(x, t)), t)
        direct = _even_series_exp(x)
        assert np.abs(via_remap.c - direct.c).max() <= 1e-10


def test_remap_rejects_foreign_input(rng):
    t = get_remap_table("cl30_cl12_1")
    with pytest.raises(ValueError):
        basis_remap(rand_mv(rng, Signature.CL03), t)
    t_even = get_remap_table("cl13_even_cl30_1")
    with pytest.raises(ValueError):
        basis_remap(EvenMultivector("cl31", np.zeros(8)), t_even)


def test_remap_by_name_string(rng):
    x = rand_mv(rng, Signature.CL30)
    assert basis_remap(x, "cl30_cl12_1") == basis_remap(x, get_remap_table("cl30_cl12_1"))


def test_even_multivector_validation():
    with pytest.raises(ValueError):
        EvenMultivector("cl22", np.zeros(8))
    with pytest.raises(ValueError):
        EvenMultivector("cl13", np.zeros(4))
    with pytest.raises(ValueError, match="finite"):
        EvenMultivector("cl31", [0.0, 1.0, np.nan, 0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        even_geometric_product(
            EvenMultivector("cl13", np.zeros(8)), EvenMultivector("cl31", np.zeros(8))
        )


def test_even_multivector_compares_by_value():
    v = (1.0, 2.0, -0.5, 0.0, 3.0, 0.25, -1.0, 4.0)
    x = EvenMultivector("cl13", v)
    assert x == EvenMultivector("cl13", np.array(v)) and not x != EvenMultivector("cl13", list(v))
    assert x != EvenMultivector("cl13", v[:7] + (4.5,))
    assert x != EvenMultivector("cl31", v)
    assert x != v and x != Multivector(Signature.CL30, v)
    with pytest.raises(TypeError):
        hash(x)


_BAD_GENERATOR_IMAGES = (
    (("e1", "e2", "e3"), "square mismatch for e2"),  # e2^2 = -1 in CL12
    (("e1", "e23", "e12"), "do not anticommute"),  # e1 and e23 commute
)


@pytest.mark.parametrize("gens, message", _BAD_GENERATOR_IMAGES)
def test_bad_generator_images_raise(gens, message):
    with pytest.raises(AssertionError, match=message):
        _solve_table("bad", "cl30", "cl12", gens)


def test_generator_checks_survive_python_O():
    script = (
        "from cl3.remap import _solve_table\n"
        f"for gens, _ in {_BAD_GENERATOR_IMAGES!r}:\n"
        "    try:\n"
        "        _solve_table('bad', 'cl30', 'cl12', gens)\n"
        "    except AssertionError as err:\n"
        "        print(err)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cl3.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(_BAD_GENERATOR_IMAGES)
    for line, (_, message) in zip(lines, _BAD_GENERATOR_IMAGES):
        assert line.startswith("bad: ") and message in line

