"""Tour of the closed-form exponential across the four 3D Clifford algebras.

Covers the de Moivre-style special cases (rotors, boosts), the factor
decomposition behind the general formula, nilpotent arguments, square
roots of the center, and transporting the exponential to an isomorphic
algebra by relabeling coefficients.
"""

import math

import numpy as np

from cl3 import (
    EvenMultivector,
    Multivector,
    SeriesFamily,
    SeriesSpec,
    Signature,
    basis_remap,
    blade,
    center_decompose,
    exp,
    exp_factors,
    exp_particular,
    geometric_product,
    series_eval,
    sqrt_center,
)
from cl3.cli import render_mv

print("== blades exponentiate to rotors and boosts ==")
theta = math.pi / 3
rotor = exp(blade(Signature.CL30, "e12", theta))
print(f"exp({theta:.4f} e12) in cl30 =", render_mv(rotor, 6))
print("  (cos + e12 sin: a rotation generator, e12^2 = -1)")
boost = exp(blade(Signature.CL21, "e13", 0.8))
print("exp(0.8 e13) in cl21 =", render_mv(boost, 6))
print("  (cosh + e13 sinh: a boost generator, e13^2 = +1)")
print()

print("== the general formula matches the Taylor series everywhere ==")
rng = np.random.default_rng(7)
for sig in Signature:
    x = Multivector(sig, rng.uniform(-1, 1, 8))
    closed = exp(x)
    series = series_eval(x, SeriesSpec(SeriesFamily.EXP, 30))
    print(f"  {sig.name.lower()}: max |closed - series| = {np.abs(closed.c - series.c).max():.2e}")
print()

print("== branch factors ==")
x = Multivector(Signature.CL21, [0.0, 0.4, 0.3, 1.5, 0.5, -0.3, 0.4, 0.2])
f = exp_factors(x)
print("cl21 example:", render_mv(x))
print(f"  branch {f.branch.value}: factor squares {f.a_plus_sq:+.4f} / {f.a_minus_sq:+.4f}")
print("  (the label only marks a vanishing factor square: exp has one formula for every")
print("   branch, and a negative square turns its hyperbolic functions trigonometric)")
print()

print("== nilpotent arguments terminate after the linear term ==")
n = blade(Signature.CL30, "e1") + blade(Signature.CL30, "e12")
print("n = e1 + e12 in cl30, n*n =", render_mv(geometric_product(n, n)))
print("exp(n) =", render_mv(exp(n)))
print()

print("== square roots of the center explain the factor pair ==")
x = Multivector(Signature.CL30, [0.0, 1.0, 0.5, -0.3, 0.4, 0.0, 0.7, 0.0])
ce = center_decompose(x)
print(f"(a + A)^2 = {ce.a_s:+.4f} {ce.a_i:+.4f} e123")
for r in sqrt_center(ce, Signature.CL30):
    print(f"  root {r.a_s:+.4f} {r.a_i:+.4f} e123")
f = exp_factors(x)
print(f"  factor pair (a+, a-) = ({f.a_plus:.4f}, {f.a_minus:+.4f}) is the positive root")
print()

print("== particular-case formulas agree with the general one ==")
v = blade(Signature.CL12, "e2", 1.1)
print("pure vector, cl12:", np.abs(exp(v).c - exp_particular(v).c).max())
s = Multivector(Signature.CL03, [0.5, 0, 0, 0, 0, 0, 0, -0.7])
print("scalar+pseudoscalar, cl03:", np.abs(exp(s).c - exp_particular(s).c).max())
print()

print("== relabeling transports exp between isomorphic algebras ==")
x = Multivector(Signature.CL30, rng.uniform(-1, 1, 8))
for table in ("cl30_cl12_1", "cl30_cl12_2"):
    lhs = basis_remap(exp(x), table)
    rhs = exp(basis_remap(x, table))
    print(f"  {table}: |remap(exp) - exp(remap)| = {np.abs(lhs.c - rhs.c).max():.2e}")
print()

print("== even elements of 4D algebras exponentiate through cl30 ==")
y = EvenMultivector("cl13", rng.uniform(-1, 1, 8))
table = "cl13_even_cl30_1"
result = basis_remap(exp(basis_remap(y, table)), table)
print("exp of an even cl(1,3) element, via the relabeling:")
print(" ", np.array2string(result.c, precision=5))
