"""Core multivector arithmetic: products, involutions, determinant, inverse."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
from cl3.algebra import _INVOLUTION_SIGNS, blade_product
from conftest import ALL_SIGS, max_err, rand_mv
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
