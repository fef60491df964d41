"""Coefficient relabelings between algebras with the same product structure.

CL30 and CL12 are isomorphic, and the even subalgebras of the 4D algebras
with signatures (1,3) and (3,1) are isomorphic to CL30.  Each built-in
table records which slot goes where; the signs that make the relabeling an
actual algebra isomorphism are solved for at import time from the three
generator images, normalized so the pseudoscalar slot maps positively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .algebra import (
    _BLADE_MASKS,
    _product_kernel,
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
EVEN_BLADE_NAMES = ("1", "e12", "e13", "e14", "e23", "e24", "e34", "e1234")
_EVEN_MASKS = (0b0000, 0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100, 0b1111)

_EVEN_SQUARES = {"cl13": (1, -1, -1, -1), "cl31": (1, 1, 1, -1)}
_EVEN_PRODUCTS = {name: _product_kernel(_EVEN_MASKS, sq) for name, sq in _EVEN_SQUARES.items()}


@dataclass(frozen=True)
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


def _solve_table(name, src, dst, src_masks, src_squares, dst_sig, pairs):
    """Derive the signed table from the three generator images.

    ``pairs`` lists (src_label, dst_label) slot pairs from the unsigned
    correspondence.  The images of the destination generators e1, e2, e3
    determine everything else by multiplication in the source algebra; the
    first generator sign combination mapping the pseudoscalar slot with +1
    wins.  Pair slots are checked against the derived ones (an explicit
    raise, kept under ``python -O``), so a transcription slip cannot
    survive import.
    """
    src_labels = BLADE_NAMES if src in ("cl30", "cl12") else EVEN_BLADE_NAMES
    dst_labels = BLADE_NAMES
    mask_to_slot = {m: i for i, m in enumerate(src_masks)}
    slot_of = {lbl: i for i, lbl in enumerate(src_labels)}
    expected = {dst_lbl: slot_of[src_lbl] for src_lbl, dst_lbl in pairs}
    gen_slots = [expected["e1"], expected["e2"], expected["e3"]]

    dsq = dst_sig.squares
    for k in range(3):
        m = src_masks[gen_slots[k]]
        _, sq = blade_product(m, m, src_squares)
        if sq != dsq[k]:
            raise AssertionError(f"{name}: generator image square mismatch for e{k + 1}")
        for other in gen_slots[:k]:
            mo = src_masks[other]
            _, s_ab = blade_product(mo, m, src_squares)
            _, s_ba = blade_product(m, mo, src_squares)
            if s_ab != -s_ba:
                raise AssertionError(f"{name}: generator images do not anticommute")

    for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1),
                  (1, -1, -1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1)):
        # Image of each dst blade: (src slot, sign), derived by products.
        images = {0: (0, 1)}
        for k in range(3):
            images[k + 1] = (gen_slots[k], signs[k])
        for dst_idx, (ka, kb) in ((4, (1, 2)), (5, (1, 3)), (6, (2, 3))):
            sa, za = images[ka]
            sb, zb = images[kb]
            mask, s = blade_product(src_masks[sa], src_masks[sb], src_squares)
            images[dst_idx] = (mask_to_slot[mask], za * zb * s)
        sa, za = images[4]
        sb, zb = images[3]
        mask, s = blade_product(src_masks[sa], src_masks[sb], src_squares)
        images[7] = (mask_to_slot[mask], za * zb * s)
        if images[7][1] != 1:
            continue
        for dst_lbl, want_slot in expected.items():
            got_slot = images[dst_labels.index(dst_lbl)][0]
            if got_slot != want_slot:
                raise AssertionError(
                    f"{name}: slot for {dst_lbl} derived as "
                    f"{src_labels[got_slot]}, table says {src_labels[want_slot]}"
                )
        src_slot = tuple(images[i][0] for i in range(8))
        sign = tuple(images[i][1] for i in range(8))
        return RemapTable(name, src, dst, src_labels, dst_labels, src_slot, sign)
    raise AssertionError(f"{name}: no generator sign choice fixes the pseudoscalar")


def _build_tables() -> dict[str, RemapTable]:
    cl30 = Signature.CL30
    cl12 = Signature.CL12
    tables = [
        _solve_table(
            "cl30_cl12_1", "cl30", "cl12", _BLADE_MASKS, cl30.squares, cl12,
            [("1", "1"), ("e1", "e1"), ("e13", "e2"), ("e12", "e3"),
             ("e3", "e12"), ("e2", "e13"), ("e23", "e23"), ("e123", "e123")],
        ),
        _solve_table(
            "cl30_cl12_2", "cl30", "cl12", _BLADE_MASKS, cl30.squares, cl12,
            [("1", "1"), ("e3", "e1"), ("e13", "e2"), ("e23", "e3"),
             ("e1", "e12"), ("e2", "e13"), ("e12", "e23"), ("e123", "e123")],
        ),
        _solve_table(
            "cl13_even_cl30_1", "cl13", "cl30", _EVEN_MASKS, _EVEN_SQUARES["cl13"], cl30,
            [("1", "1"), ("e12", "e1"), ("e13", "e2"), ("e14", "e3"),
             ("e23", "e12"), ("e24", "e13"), ("e34", "e23"), ("e1234", "e123")],
        ),
        _solve_table(
            "cl13_even_cl30_2", "cl13", "cl30", _EVEN_MASKS, _EVEN_SQUARES["cl13"], cl30,
            [("1", "1"), ("e14", "e1"), ("e13", "e2"), ("e12", "e3"),
             ("e34", "e12"), ("e24", "e13"), ("e23", "e23"), ("e1234", "e123")],
        ),
        _solve_table(
            "cl31_even_cl30_1", "cl31", "cl30", _EVEN_MASKS, _EVEN_SQUARES["cl31"], cl30,
            [("1", "1"), ("e14", "e1"), ("e24", "e2"), ("e34", "e3"),
             ("e12", "e12"), ("e13", "e13"), ("e23", "e23"), ("e1234", "e123")],
        ),
        _solve_table(
            "cl31_even_cl30_2", "cl31", "cl30", _EVEN_MASKS, _EVEN_SQUARES["cl31"], cl30,
            [("1", "1"), ("e34", "e1"), ("e24", "e2"), ("e14", "e3"),
             ("e23", "e12"), ("e13", "e13"), ("e12", "e23"), ("e1234", "e123")],
        ),
    ]
    return {t.name: t for t in tables}


REMAP_TABLES = _build_tables()

_SIG_BY_NAME = {"cl30": Signature.CL30, "cl12": Signature.CL12}


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
            return Multivector(dst_sig, table.forward(x.t))
        if x.sig is dst_sig:
            if table.src in _SIG_BY_NAME:
                return Multivector(_SIG_BY_NAME[table.src], table.backward(x.t))
            return EvenMultivector(table.src, table.backward(x.t))
    elif isinstance(x, EvenMultivector) and x.algebra == table.src:
        return Multivector(dst_sig, table.forward(x.c.tolist()))
    raise ValueError(f"input does not belong to either side of table {table.name!r}")
