"""Coefficient relabelings between algebras with the same product structure.

CL30 and CL12 are isomorphic, and the even subalgebras of the 4D algebras
with signatures (1,3) and (3,1) are isomorphic to CL30.  Each built-in
table is given by the source blades that the destination generators e1,
e2, e3 map to.  At import, every other destination blade maps to the
ascending product of its generators' images, and e3's image is negated
where that makes the pseudoscalar map positively; this fixes both the
slots and the signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .algebra import (
    _BLADE_MASKS,
    _SlotKernels,
    _blade_name,
    BLADE_NAMES,
    Multivector,
    Signature,
    blade_product,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EVEN_BLADE_NAMES",
    "EvenMultivector",
    "RemapTable",
    "REMAP_TABLES",
    "get_remap_table",
    "basis_remap",
    "even_geometric_product",
]

# Even-grade blades of a 4D algebra, graded and ascending like the 3D order.
_EVEN_MASKS = (0b0000, 0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100, 0b1111)
EVEN_BLADE_NAMES = tuple(map(_blade_name, _EVEN_MASKS))

_EVEN_SQUARES = {"cl13": (1, -1, -1, -1), "cl31": (1, 1, 1, -1)}
_EVEN_PRODUCTS = _SlotKernels(masks=_EVEN_MASKS, squares=_EVEN_SQUARES.__getitem__)


@dataclass(frozen=True, eq=False)
class EvenMultivector:
    """Even-grade element of a 4D algebra on the 8 even blades."""

    algebra: str  # "cl13" or "cl31"
    c: np.ndarray

    def __post_init__(self):
        import numpy as np

        if self.algebra not in _EVEN_SQUARES:
            raise ValueError(f"algebra must be 'cl13' or 'cl31', got {self.algebra!r}")
        c = np.array(self.c, dtype=float).reshape(8)
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    def __eq__(self, other):
        if not isinstance(other, EvenMultivector):
            return NotImplemented
        return self.algebra == other.algebra and self.c.tolist() == other.c.tolist()

    __hash__ = None


def even_geometric_product(x: EvenMultivector, y: EvenMultivector) -> EvenMultivector:
    """Product of two even 4D elements (the even blades close under it)."""
    if x.algebra != y.algebra:
        raise ValueError(f"cannot multiply {x.algebra} by {y.algebra} element")
    return EvenMultivector(x.algebra, _EVEN_PRODUCTS[x.algebra](x.c.tolist(), y.c.tolist()))


@dataclass(frozen=True)
class RemapTable:
    """Signed slot bijection between a source basis and a 3D destination."""

    name: str
    src: str                       # "cl30", "cl13", "cl31"
    dst: str                       # "cl12" or "cl30"
    src_labels: tuple[str, ...]
    dst_labels: tuple[str, ...]
    src_slot: tuple[int, ...]      # dst slot i takes src slot src_slot[i]
    sign: tuple[int, ...]          # ... multiplied by sign[i]

    def forward(self, coeffs) -> tuple[float, ...]:
        return tuple([s * coeffs[k] for k, s in zip(self.src_slot, self.sign)])

    def backward(self, coeffs) -> tuple[float, ...]:
        # Source slot src_slot[i] takes destination slot i (signs are +/-1).
        dst_slot = sorted(range(8), key=self.src_slot.__getitem__)
        return tuple([self.sign[i] * coeffs[i] for i in dst_slot])


_SIG_BY_NAME = {"cl30": Signature.CL30, "cl12": Signature.CL12}


def _solve_table(name: str, src: str, dst: str, gens: tuple[str, str, str]) -> RemapTable:
    """Derive the signed table from ``gens``, the source labels of the
    destination generators e1, e2, e3.

    Each destination blade maps to the ascending product of its generators'
    images; when the pseudoscalar image comes out negative, e3's image is
    negated.  The images must square like the destination generators and
    anticommute (explicit raises, kept under ``python -O``).  Then no two
    blade images share a slot: that would map e123 to a scalar, whose square
    +1 differs from e123^2 = -1 in both destinations.
    """
    if src in _SIG_BY_NAME:
        src_labels, src_masks, src_squares = BLADE_NAMES, _BLADE_MASKS, _SIG_BY_NAME[src].squares
    else:
        src_labels, src_masks, src_squares = EVEN_BLADE_NAMES, _EVEN_MASKS, _EVEN_SQUARES[src]
    gen_masks = [src_masks[src_labels.index(label)] for label in gens]
    for k, m in enumerate(gen_masks):
        if blade_product(m, m, src_squares)[1] != _SIG_BY_NAME[dst].squares[k]:
            raise AssertionError(f"{name}: generator image square mismatch for e{k + 1}")
        for mo in gen_masks[:k]:
            if blade_product(mo, m, src_squares)[1] == blade_product(m, mo, src_squares)[1]:
                raise AssertionError(f"{name}: generator images do not anticommute")

    slots, signs = [], []
    for dst_mask in _BLADE_MASKS:
        mask, sign = 0, 1
        for k, m in enumerate(gen_masks):
            if dst_mask >> k & 1:
                mask, s = blade_product(mask, m, src_squares)
                sign *= s
        slots.append(src_masks.index(mask))
        signs.append(sign)
    # Negating e3's image flips every blade that holds e3, the pseudoscalar too.
    flip = signs[7]
    signs = [s * flip if dst_mask & 0b100 else s for s, dst_mask in zip(signs, _BLADE_MASKS)]
    return RemapTable(name, src, dst, src_labels, BLADE_NAMES, tuple(slots), tuple(signs))


# Source labels of the destination generators e1, e2, e3.
_GENERATOR_IMAGES = (
    ("cl30_cl12_1", "cl30", "cl12", ("e1", "e13", "e12")),
    ("cl30_cl12_2", "cl30", "cl12", ("e3", "e13", "e23")),
    ("cl13_even_cl30_1", "cl13", "cl30", ("e12", "e13", "e14")),
    ("cl13_even_cl30_2", "cl13", "cl30", ("e14", "e13", "e12")),
    ("cl31_even_cl30_1", "cl31", "cl30", ("e14", "e24", "e34")),
    ("cl31_even_cl30_2", "cl31", "cl30", ("e34", "e24", "e14")),
)
REMAP_TABLES = {name: _solve_table(name, *rest) for name, *rest in _GENERATOR_IMAGES}


def get_remap_table(name: str) -> RemapTable:
    try:
        return REMAP_TABLES[name]
    except KeyError:
        raise ValueError(
            f"unknown remap table {name!r}; available: {', '.join(sorted(REMAP_TABLES))}"
        ) from None


def basis_remap(x, table: RemapTable):
    """Apply a relabeling table in whichever direction matches ``x``.

    3D <-> 3D tables take and return ``Multivector``; the even-subalgebra
    tables map ``EvenMultivector`` to a CL30 ``Multivector`` and back.
    """
    if isinstance(table, str):
        table = get_remap_table(table)
    dst_sig = _SIG_BY_NAME[table.dst]
    if isinstance(x, Multivector):
        if table.src in _SIG_BY_NAME and x.sig is _SIG_BY_NAME[table.src]:
            return Multivector._of(dst_sig, table.forward(x.t))
        if x.sig is dst_sig:
            if table.src in _SIG_BY_NAME:
                return Multivector._of(_SIG_BY_NAME[table.src], table.backward(x.t))
            return EvenMultivector(table.src, table.backward(x.t))
    elif isinstance(x, EvenMultivector) and x.algebra == table.src:
        return Multivector._of(dst_sig, table.forward(x.c.tolist()))
    raise ValueError(f"input does not belong to either side of table {table.name!r}")
