"""Center decomposition of (vector + bivector) squares and its isolated roots.

For any multivector the square of its vector + bivector part lands in the
center span{1, e123}.  The scalar/pseudoscalar pair (a_s, a_i) of that
square drives the exponential factor tables, and its isolated square roots
a_r + a_p*e123 exist under algebra-specific conditions.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .algebra import _SQUARE_Y, Multivector, Signature, _center_mul
from .exceptions import NoIsolatedRootError

__all__ = ["CenterElement", "center_decompose", "center_product", "sqrt_center"]


class CenterElement(NamedTuple):
    """Element a_s + a_i * e123 of the algebra center."""

    a_s: float
    a_i: float

    def as_multivector(self, sig: Signature) -> Multivector:
        return Multivector(sig, (self.a_s, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, self.a_i))


def center_product(x: CenterElement, y: CenterElement, sig: Signature) -> CenterElement:
    """Product of two center elements under the signature's pseudoscalar square."""
    return CenterElement(*_center_mul(x, y, sig.i_square))


def center_decompose(x: Multivector) -> CenterElement:
    """Scalar/pseudoscalar pair (a_s, a_i) of the squared vector+bivector part.

    Scalar and pseudoscalar coefficients of ``x`` are ignored.  Sign
    conventions follow the per-algebra factor tables: for CL03 the pair
    satisfies (a + A)^2 = -(a_s + a_i*e123), for the other three algebras
    (a + A)^2 = +(a_s + a_i*e123).
    """
    zs, zi = _SQUARE_Y[x.sig](x.t, x.t)
    s = -1.0 if x.sig is Signature.CL03 else 1.0
    # + 0.0 turns -0.0 into +0.0, so an exact zero carries no sign and a
    # negative real square gets the root +sqrt(-a_s)*e123 from cmath.sqrt.
    return CenterElement(s * zs + 0.0, s * zi + 0.0)


def sqrt_center(c: CenterElement, sig: Signature) -> list[CenterElement]:
    """All isolated square roots of a center element.

    CL30/CL12 (e123^2 = -1) yield one +/- pair whenever a_s + |c| > 0.
    CL03/CL21 (e123^2 = +1) yield the pair +/-r, with r from +sqrt(a_s +/- a_i)
    on the two halves, plus +/-e123*r unless r's e123 part is 0, provided
    a_s > |a_i|.
    Violated conditions raise ``NoIsolatedRootError``.
    """
    a_s, a_i = c.a_s, c.a_i
    if sig.i_square == -1:
        # The center is the complex plane; a root on the e123 axis (real
        # part 0) is not isolated.
        root = cmath.sqrt(complex(a_s, a_i))
        if root.real > 0.0:
            return [CenterElement(root.real, root.imag), CenterElement(-root.real, -root.imag)]
    elif a_s > abs(a_i):
        # On the halves (1 +/- e123)/2 the center is the pair of reals a_s +/- a_i,
        # and a root takes +/-sqrt of each: r = w + v*e123 from both positive ones.
        w = 0.5 * (math.sqrt(a_s + a_i) + math.sqrt(a_s - a_i))
        v = a_i / (2.0 * w)
        roots = [CenterElement(w, v), CenterElement(-w, -v)]
        if v:
            # e123 * r = v + w*e123, signed so that its scalar part is positive.
            u = math.copysign(w, a_i)
            roots += [CenterElement(abs(v), u), CenterElement(-abs(v), -u)]
        return roots
    raise NoIsolatedRootError(
        f"center {a_s:.6g} + {a_i:.6g}*e123 has no isolated root in {sig.name}"
    )
