"""Multivector arithmetic in the four real Clifford algebras of 3D space.

Coefficients are stored in the fixed blade order

    [1, e1, e2, e3, e12, e13, e23, e123]

i.e. graded by scalar, vector, bivector, pseudoscalar, with ascending
generator indices inside each blade (``e13`` is the stored blade; ``e31``
is its negative and never appears).  The product tables are derived from the
generator relations ``ei*ej + ej*ei = +/-2*delta_ij`` rather than entered
by hand, and each one is compiled on first use into a straight-line
function over two coefficient tuples.
"""

from __future__ import annotations

import enum
import math
import operator
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .exceptions import NonFiniteError, NonInvertibleError, NormUndefinedError, SignatureMismatchError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BLADE_NAMES",
    "BLADE_GRADES",
    "Signature",
    "Multivector",
    "InvolutionKind",
    "InverseResult",
    "blade",
    "blades",
    "blade_product",
    "sign_table",
    "geometric_product",
    "involute",
    "grade_select",
    "determinant",
    "adjugate",
    "inverse",
    "det_norm",
]

# Bit i of a mask marks generator e_{i+1}.
_BLADE_MASKS = (0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111)


def _blade_name(mask: int) -> str:
    """``1`` for the empty mask, else ``e`` and the ascending generator indices."""
    return "e" + "".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) if mask else "1"


BLADE_NAMES = tuple(map(_blade_name, _BLADE_MASKS))
BLADE_GRADES = tuple(mask.bit_count() for mask in _BLADE_MASKS)

# Residue guard on the central product x * conj(x), residue <= 1e-10 *
# max(sum |c_i|, 1)^2, compared as square roots, and the scale-invariant
# singularity cutoff |det| <= 1e-12 * (sum |c_i|)^4, compared as fourth roots:
# (sum |c_i|)^4 overflows from about 3.7e77, long before the products do.
_RESIDUE_ROOT = 1e-10 ** 0.5
_SINGULAR_ROOT = 1e-12 ** 0.25
# Below this sum |c_i|, det and 1/det may leave the normal range, so ``inverse``
# works on x scaled by an exact power of two.
_TINY_SUM = 2.0 ** -200


class Signature(enum.Enum):
    """Metric signature (p, q): p generators square to +1, q to -1."""

    CL30 = (3, 0)
    CL03 = (0, 3)
    CL12 = (1, 2)
    CL21 = (2, 1)

    # Members are singletons compared by identity, so identity hashing is
    # consistent and keeps dict lookups keyed by a signature cheap.
    __hash__ = object.__hash__

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q
        # Squares of (e1, e2, e3); the first p generators are positive.
        self.squares = tuple(1 if i < p else -1 for i in range(3))
        # Square of the pseudoscalar e123 (-1 for CL30/CL12, +1 for CL03/CL21).
        self.i_square = -self.squares[0] * self.squares[1] * self.squares[2]

    @classmethod
    def from_name(cls, name: str) -> "Signature":
        try:
            return cls[name.upper().replace("(", "").replace(")", "").replace(",", "")]
        except KeyError:
            valid = ", ".join(sig.name.lower() for sig in cls)
            raise ValueError(f"unknown algebra {name!r}; expected one of {valid}") from None


def blade_product(mask_a: int, mask_b: int, squares: Sequence[int]) -> tuple[int, int]:
    """Product of two basis blades given as generator bitmasks.

    Returns ``(result_mask, sign)``.  The sign counts the generator swaps
    needed to interleave the two blades into ascending order and folds in
    the squares of the repeated generators.
    """
    swaps = 0
    a = mask_a >> 1
    while a:
        swaps += (a & mask_b).bit_count()
        a >>= 1
    sign = -1 if swaps & 1 else 1
    common = mask_a & mask_b
    i = 0
    while common:
        if common & 1:
            sign *= squares[i]
        common >>= 1
        i += 1
    return mask_a ^ mask_b, sign


@lru_cache(maxsize=None)
def _blade_table(masks: Sequence[int], squares: Sequence[int]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """(target slot, sign) of blade i times blade j, for every slot pair; built once per table."""
    slot = {mask: k for k, mask in enumerate(masks)}
    products = [[blade_product(a, b, squares) for b in masks] for a in masks]
    return tuple(tuple((slot[mask], sign) for mask, sign in row) for row in products)


def _product_kernel(masks: Sequence[int], squares: Sequence[int], a_slots=None, b_slots=None, out_slots=None) -> Callable:
    """Compile the product over blades ``masks`` into ``prod(a, b) -> tuple``.

    Output slot k is the signed sum of ``a[i] * b[j]`` over the slot pairs
    whose blade product lands on k, written out as straight-line source (the
    code generation idiom of *kingdon*), so a call looks up no table.  It reads
    ``a_slots`` of ``a`` and ``b_slots`` of ``b``, taking the rest as 0.0, and returns
    ``out_slots``; a dropped term ``+ 0.0 * 0.0`` becomes ``+ 0.0``, so a zero sum stays +0.0.
    """
    n = len(masks)
    a_slots, b_slots, out_slots = (range(n) if s is None else s for s in (a_slots, b_slots, out_slots))
    terms, zeros = [[] for _ in range(n)], set()
    for i, row in enumerate(_blade_table(masks, squares)):
        for j, (k, sign) in enumerate(row):
            if i in a_slots and j in b_slots:
                terms[k].append(f"{'-' if sign < 0 else '+'} a{i} * b{j}")
            elif sign > 0 and i not in a_slots and j not in b_slots:
                zeros.add(k)
    lines = [
        "def prod(a, b):",
        f"    {', '.join(f'a{i}' if i in a_slots else '_' for i in range(n))} = a",
        f"    {', '.join(f'b{i}' if i in b_slots else '_' for i in range(n))} = b",
        "    return (",
        *(f"        {' '.join(terms[k]).removeprefix('+ ')}{' + 0.0' * (k in zeros)}," for k in out_slots),
        "    )",
    ]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["prod"]


class _SlotKernels(dict):
    """Product kernels keyed by algebra, each compiled on first use, so a process
    pays only for the algebras it uses; ``squares(key)`` gives the generator squares."""

    def __init__(self, *slots, masks=_BLADE_MASKS, squares=operator.attrgetter("squares")):
        self.slots, self.masks, self.squares = slots, masks, squares

    def __missing__(self, key):
        kernel = self[key] = _product_kernel(self.masks, self.squares(key), *self.slots)
        return kernel


# The full product, then y * y (central) and c * y for y in slots 1-6 and c in slots 0 and 7.
_PRODUCTS = _SlotKernels()
_SQUARE_Y = _SlotKernels(range(1, 7), range(1, 7), (0, 7))
_CENTER_Y = _SlotKernels((0, 7), range(1, 7), range(1, 7))


def sign_table(sig: Signature) -> tuple[np.ndarray, np.ndarray]:
    """(target index, sign) arrays of the 8x8 blade product table."""
    import numpy as np

    table = np.array(_blade_table(_BLADE_MASKS, sig.squares), dtype=np.int8)
    return table[:, :, 0].copy(), table[:, :, 1].copy()


class Multivector:
    """Immutable 8-coefficient element of one of the four 3D algebras.

    ``t`` holds the coefficients as a tuple of eight floats; ``c`` is the
    same values as a read-only numpy array, built on first access.
    """

    __slots__ = ("sig", "t", "_c")

    def __init__(self, sig: Signature, coeffs):
        if type(coeffs) is tuple and len(coeffs) == 8:
            coeffs = tuple(map(float, coeffs))
        else:
            import numpy as np

            coeffs = tuple(np.asarray(coeffs, dtype=float).reshape(8).tolist())
        if not all(map(math.isfinite, coeffs)):
            raise NonFiniteError("multivector coefficients must be finite")
        self.sig = sig
        self.t = coeffs
        self._c = None

    @classmethod
    def _of(cls, sig: Signature, t: tuple) -> "Multivector":
        """An internal result whose ``t`` is already eight floats: no conversion, the same finiteness check."""
        if not all(map(math.isfinite, t)):
            raise NonFiniteError("multivector coefficients must be finite")
        x = object.__new__(cls)
        x.sig, x.t, x._c = sig, t, None
        return x

    @property
    def c(self) -> np.ndarray:
        c = self._c
        if c is None:
            import numpy as np

            c = np.array(self.t)
            c.flags.writeable = False
            self._c = c
        return c

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls(sig, (0.0,) * 8)

    @classmethod
    def scalar(cls, sig: Signature, value: float) -> "Multivector":
        return cls(sig, (value,) + (0.0,) * 7)

    @property
    def scalar_part(self) -> float:
        return self.t[0]

    def grade(self, g: int) -> "Multivector":
        return grade_select(self, g)

    def reverse(self) -> "Multivector":
        return involute(self, InvolutionKind.REVERSE)

    def __add__(self, other):
        if isinstance(other, Multivector):
            if self.sig is not other.sig:
                raise SignatureMismatchError(f"cannot combine {self.sig.name} and {other.sig.name} multivectors")
            return Multivector._of(self.sig, tuple(map(operator.add, self.t, other.t)))
        if isinstance(other, (int, float)):
            return Multivector(self.sig, (self.t[0] + other,) + self.t[1:])
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Multivector._of(self.sig, tuple(map(operator.neg, self.t)))

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        if isinstance(other, (int, float)):
            return Multivector(self.sig, tuple([v * other for v in self.t]))
        return NotImplemented

    # Only non-multivector left operands reach __rmul__, and scalars commute.
    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.sig, tuple([v / other for v in self.t]))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig is other.sig and self.t == other.t

    __hash__ = None

    def __repr__(self):
        return f"Multivector(Signature.{self.sig.name}, {list(self.t)})"

    def __str__(self):
        return _render(self.t, 12)


def _render(t: tuple, digits: int) -> str:
    """Signed terms in blade order, e.g. ``-4 + 1*e1 - 5*e3``; exact zeros suppressed."""
    terms = [
        ("- " if v < 0 else "+ ") + f"{abs(v):.{digits}g}" + ("" if name == "1" else f"*{name}")
        for name, v in zip(BLADE_NAMES, t)
        if v != 0.0
    ]
    text = " ".join(terms).removeprefix("+ ")
    return ("-" + text[2:] if text.startswith("- ") else text) or "0"


def blade(sig: Signature, name: str, coeff: float = 1.0) -> Multivector:
    """Basis blade by name, e.g. ``blade(Signature.CL30, "e12")``."""
    try:
        idx = BLADE_NAMES.index(name)
    except ValueError:
        raise ValueError(f"unknown blade {name!r}; valid names: {', '.join(BLADE_NAMES)}") from None
    c = [0.0] * 8
    c[idx] = coeff
    return Multivector(sig, tuple(c))


def blades(sig: Signature) -> dict[str, Multivector]:
    """Name -> unit blade map for one algebra."""
    return {name: blade(sig, name) for name in BLADE_NAMES}


def geometric_product(x: Multivector, y: Multivector) -> Multivector:
    """Geometric (Clifford) product of two multivectors of the same algebra."""
    if x.sig is not y.sig:
        raise SignatureMismatchError(
            f"cannot multiply {x.sig.name} by {y.sig.name} multivector"
        )
    return Multivector._of(x.sig, _PRODUCTS[x.sig](x.t, y.t))


class InvolutionKind(enum.Enum):
    REVERSE = "reverse"
    GRADE_INVERSE = "grade-inverse"
    REVERSE_GRADE_INVERSE = "reverse-grade-inverse"

    # Members are singletons compared by identity, so identity hashing is
    # consistent and keeps dict lookups keyed by a kind cheap.
    __hash__ = object.__hash__


# Reverse multiplies grade g by (-1)^(g(g-1)/2), grade inverse by (-1)^g,
# their composition by the product of the two.
_REVERSE_SIGNS = tuple((-1.0) ** (g * (g - 1) // 2) for g in BLADE_GRADES)
_GRADE_SIGNS = tuple((-1.0) ** g for g in BLADE_GRADES)
_INVOLUTION_SIGNS = {
    InvolutionKind.REVERSE: _REVERSE_SIGNS,
    InvolutionKind.GRADE_INVERSE: _GRADE_SIGNS,
    InvolutionKind.REVERSE_GRADE_INVERSE: tuple(map(operator.mul, _REVERSE_SIGNS, _GRADE_SIGNS)),
}


def involute(x: Multivector, kind: InvolutionKind) -> Multivector:
    """Apply one of the three grade-sign involutions."""
    return Multivector._of(x.sig, tuple(map(operator.mul, _INVOLUTION_SIGNS[kind], x.t)))


def grade_select(x: Multivector, g: int) -> Multivector:
    """Zero every coefficient whose blade is not of grade ``g``."""
    if g not in (0, 1, 2, 3):
        raise ValueError(f"grade must be in 0..3, got {g}")
    return Multivector._of(x.sig, tuple([v if k == g else 0.0 for k, v in zip(BLADE_GRADES, x.t)]))


def _center_norm(x: Multivector) -> tuple[float, float, float]:
    """n_s, n_i of the central n = x * conj(x) = c^2 - y^2, and det = n * conj(n):
    n_s^2 + n_i^2 where e123^2 = -1, else the product of the halves n_s +/- n_i.
    A residue in slots 1-6 means corrupt sign tables (``AssertionError``, also under
    -O); slot 0 holds every a_i^2, so an overflow leaves det non-finite (``NonFiniteError``)."""
    t = x.t
    n = _PRODUCTS[x.sig](t, tuple(map(operator.mul, _INVOLUTION_SIGNS[InvolutionKind.REVERSE_GRADE_INVERSE], t)))
    ns, ni = n[0], n[7]
    det = ns * ns + ni * ni if x.sig.i_square < 0 else (ns + ni) * (ns - ni)
    if not math.isfinite(det):
        raise NonFiniteError(f"determinant of {x!r} overflows double precision")
    residue = max(map(abs, n[1:7]))
    if residue ** 0.5 > _RESIDUE_ROOT * max(sum(map(abs, t)), 1.0):
        raise AssertionError(f"non-scalar residue {residue:.3e} in determinant product")
    return ns, ni, det


def _center_mul(a: tuple[float, float], b: tuple[float, float], k: float) -> tuple[float, float]:
    """Product of center pairs (s, i) = s + i*e123, with k = e123^2."""
    return a[0] * b[0] + k * a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _adjugate_with_det(x: Multivector) -> tuple[Multivector, float]:
    """Adjugate conj(x) * conj(n) = c * conj(n) - conj(n) * y, and det."""
    ns, ni, det = _center_norm(x)
    t, sig = x.t, x.sig
    cs, ci = _center_mul((t[0], t[7]), (ns, -ni), sig.i_square)
    adj = (cs, *_CENTER_Y[sig]((-ns, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, ni), t), ci)
    try:
        return Multivector._of(sig, adj), det
    except NonFiniteError:
        raise NonFiniteError(f"determinant of {x!r} overflows double precision") from None


def determinant(x: Multivector) -> float:
    """Scalar determinant of a multivector."""
    return _center_norm(x)[2]


def adjugate(x: Multivector) -> Multivector:
    """Adjugate: adj(x) * x = x * adj(x) = det(x)."""
    return _adjugate_with_det(x)[0]


class InverseResult(NamedTuple):
    adjugate: Multivector
    determinant: float
    inverse: Multivector


def inverse(x: Multivector) -> InverseResult:
    """Adjugate, determinant and inverse of a multivector.

    Raises ``NonInvertibleError`` (still carrying the adjugate and the
    determinant) when |det| falls below the scale-invariant cutoff.  Where
    sum |c_i| < 2^-200 the inverse is 2^k inv(2^k x), with 2^k x's sum in
    [1/2, 1); the adjugate and determinant are x's own and may underflow.
    """
    adj, det = _adjugate_with_det(x)
    total = sum(map(abs, x.t))
    k, adj_k, det_k = 0, adj, det
    if 0.0 < total < _TINY_SUM:
        k = -math.frexp(total)[1]
        adj_k, det_k = _adjugate_with_det(Multivector._of(x.sig, tuple([math.ldexp(v, k) for v in x.t])))
    det_root, root = math.ldexp(abs(det_k) ** 0.25, -k), _SINGULAR_ROOT * total
    if det_root <= root:
        raise NonInvertibleError(
            f"determinant {det:.6e} below singularity cutoff: "
            f"|det|^(1/4) = {det_root:.6e} <= 1e-3 * sum |c_i| = {root:.6e}",
            adjugate=adj,
            determinant=det,
        )
    inv = Multivector._of(x.sig, tuple(map((1.0 / det_k).__mul__, adj_k.t)))
    if k:
        try:
            inv = Multivector._of(x.sig, tuple([math.ldexp(v, k) for v in inv.t]))
        except OverflowError:
            raise NonFiniteError(f"inverse of {x!r} overflows double precision") from None
    return InverseResult(adj, det, inv)


def det_norm(x: Multivector) -> float:
    """Determinant norm det(x)**(1/4) (det is quartic in x), as 2^-k det(2^k x)**(1/4)
    with sum |2^k c_i| in [1/2, 1): finite wherever the norm is, and scale-free."""
    k = -math.frexp(sum(map(abs, x.t)))[1]
    det = determinant(Multivector._of(x.sig, tuple([math.ldexp(v, k) for v in x.t])))
    if det < 0.0:
        raise NormUndefinedError(
            f"determinant of {x!r} is negative; no real fourth root"
        )
    return math.ldexp(det ** 0.25, -k)
