"""Cube-list primitives: whole-cover work as plain functions.

A cover is a ``List[int]`` of cubes over a
:class:`~repro.cubes.space.Space` layout.  The functions here do the
work the algorithm modules (tautology, complement, EXPAND, REDUCE,
IRREDUNDANT, the symbolic merge) would otherwise spell as per-cube
loops: folds, cofactors, absorption, part merges, minterm counting and
EXPAND's blocking and raise scoring.  None mutates its argument; each
returns a fresh list or a scalar.

Every primitive reproduces the per-cube int loops of
:mod:`repro.cubes.cube` exactly — tie-breaking (first strict
maximum), stable sort orders and the greedy absorption result — which
``tests/test_bulk_kernel.py`` pins down.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, List, Sequence, Tuple

from .cube import cube_size as _cube_size
from .cube import sharp as _sharp
from .space import Space

__all__ = [
    "absorb",
    "and_rows",
    "best_raise",
    "binate_part",
    "bit_count",
    "blocker",
    "cofactor_cube",
    "cofactor_value",
    "contained_rows",
    "cross_intersect",
    "dedup_keep_mask",
    "is_unate",
    "merge_part",
    "minterm_count",
    "nonfull_counts",
    "popcounts",
    "union_info",
]

try:  # Python >= 3.10
    bit_count = int.bit_count
except AttributeError:  # pragma: no cover - py3.9 fallback

    def bit_count(x: int) -> int:
        return bin(x).count("1")


_KERNEL = SimpleNamespace(name="python")


def active_kernel() -> SimpleNamespace:
    """The cube kernel's label, ``name == "python"``.

    Its only reader is the pipeline benchmark's run manifest
    (``benchmarks/pipeline/workloads.py::manifest``), which records a
    ``kernel`` field from the time this package had two backends.
    """
    return _KERNEL


# -- whole-cover folds -------------------------------------------------
def union_info(space: Space, cover: Sequence[int]) -> Tuple[int, bool]:
    """``(OR of all rows, has_universe_row)`` in one pass."""
    universe = space.universe
    union = 0
    found = False
    for c in cover:
        union |= c
        if c == universe:
            found = True
            break
    return union, found


def popcounts(cover: Sequence[int]) -> List[int]:
    """Per-row popcount (the cube *weight* used for sort orders)."""
    return [bit_count(c) for c in cover]


def nonfull_counts(space: Space, cover: Sequence[int]) -> List[int]:
    """Per part: number of rows whose field is not full."""
    counts = []
    for mask in space.part_masks:
        n = 0
        for c in cover:
            if c & mask != mask:
                n += 1
        counts.append(n)
    return counts


def is_unate(space: Space, cover: Sequence[int]) -> bool:
    """True when, per part, all non-full fields are identical."""
    for mask in space.part_masks:
        seen = -1
        for c in cover:
            field = c & mask
            if field != mask:
                if seen < 0:
                    seen = field
                elif field != seen:
                    return False
    return True


def binate_part(space: Space, cover: Sequence[int]) -> int:
    """Part non-full in the most rows; first part wins ties."""
    best_part = -1
    best_score = -1
    for part, score in enumerate(nonfull_counts(space, cover)):
        if score > best_score:
            best_score = score
            best_part = part
    return best_part


def contained_rows(cover: Sequence[int], cube: int) -> List[bool]:
    """Per row: is the row contained in ``cube`` (row ⊆ cube)?"""
    return [not c & ~cube for c in cover]


# -- cofactor / restriction --------------------------------------------
def cofactor_value(
    space: Space, cover: Sequence[int], part: int, value: int
) -> List[int]:
    """Cofactor against value ``value`` of ``part``: keep rows
    admitting the value and raise their ``part`` field to full."""
    mask = space.part_masks[part]
    bit = 1 << (space.offsets[part] + value)
    return [c | mask for c in cover if c & bit]


def cofactor_cube(space: Space, cover: Sequence[int], pivot: int) -> List[int]:
    """ESPRESSO cofactor against a pivot cube: rows with a void
    meet are dropped, the rest are lifted outside the pivot."""
    lifted = space.universe & ~pivot
    masks = space.part_masks
    out = []
    for c in cover:
        meet = c & pivot
        for m in masks:
            if not meet & m:
                break
        else:
            out.append(c | lifted)
    return out


def and_rows(cover: Sequence[int], cube: int) -> List[int]:
    """AND every row with ``cube`` (rows may become void)."""
    return [c & cube for c in cover]


# -- cover surgery -----------------------------------------------------
def merge_part(space: Space, cover: Sequence[int], part: int) -> List[int]:
    """Merge rows identical outside ``part`` by OR-ing the fields;
    output order is first occurrence of each outside-key."""
    mask = space.part_masks[part]
    merged = {}
    for c in cover:
        key = c & ~mask
        merged[key] = merged.get(key, 0) | (c & mask)
    return [key | field for key, field in merged.items()]


def absorb(cover: Sequence[int]) -> List[int]:
    """Pairwise absorption, the result of :func:`repro.cubes.cube.absorb`
    without sorting the caller's list: stable-sort rows by descending
    popcount, keep a row iff it is contained in no strictly earlier row
    (by transitivity that equals "no earlier *kept* row")."""
    order = sorted(cover, key=bit_count, reverse=True)
    result: List[int] = []
    for cube in order:
        for big in result:
            if not cube & ~big:
                break
        else:
            result.append(cube)
    return result


def dedup_keep_mask(cover: Sequence[int]) -> List[bool]:
    """EXPAND's final dedup: drop row ``i`` when another row ``j``
    contains it and is either distinct or earlier (``j < i``)."""
    keep = []
    for i, c in enumerate(cover):
        drop = False
        for j, d in enumerate(cover):
            if j != i and not c & ~d and (d != c or j < i):
                drop = True
                break
        keep.append(not drop)
    return keep


def cross_intersect(
    space: Space, a: Sequence[int], b: Sequence[int]
) -> List[int]:
    """All pairwise meets ``a_i & b_j`` (a-major order), voids
    dropped — the row-wise intersect matrix flattened."""
    masks = space.part_masks
    out = []
    for x in a:
        for y in b:
            c = x & y
            for m in masks:
                if not c & m:
                    break
            else:
                out.append(c)
    return out


# -- counting ----------------------------------------------------------
def minterm_count(space: Space, cover: Sequence[int]) -> int:
    """Exact number of distinct minterms covered (disjoint sharp)."""
    disjoint: List[int] = []
    for cube in cover:
        pieces = [cube]
        for seen in disjoint:
            nxt: List[int] = []
            for piece in pieces:
                nxt.extend(_sharp(space, piece, seen))
            pieces = nxt
            if not pieces:
                break
        disjoint.extend(pieces)
    total = 0
    for c in disjoint:
        total += _cube_size(space, c)
    return total


# -- EXPAND support ----------------------------------------------------
def blocker(space: Space, off: Sequence[int]) -> Callable[[int], int]:
    """EXPAND's blocking check against a fixed off-set.

    Returns ``blocked(cube)``: the union of raise bits blocked by
    the off-set.  For every off row whose meet with ``cube`` is
    empty in exactly one part (a *critical*, distance-one row),
    the values it admits in that part may not be raised.

    The off-set is held column-wise, as ESPRESSO's blocking matrix
    (Brayton et al. 1984): ``cols[b]`` has bit ``i`` set when off
    row ``i`` admits bit ``b``.  The rows with an empty meet in
    part ``p`` are then ``all & ~OR(cols[b] for b in cube ∩ p)``,
    a ones/twos accumulator over the parts keeps the rows empty in
    exactly one part, and bit ``b`` of part ``p`` is blocked when
    ``cols[b]`` meets those rows of ``p`` — one AND per bit instead
    of a scan over every row and part.
    """
    cols = [0] * space.width
    for i, o in enumerate(off):
        row = 1 << i
        while o:
            low = o & -o
            cols[low.bit_length() - 1] |= row
            o ^= low
    all_rows = (1 << len(off)) - 1
    # per part: (bit, column) for each of its positions
    parts = [
        [(1 << b, cols[b]) for b in range(offset, offset + size)]
        for offset, size in zip(space.offsets, space.part_sizes)
    ]

    def blocked(cube: int) -> int:
        ones = twos = 0
        empties = []
        for part in parts:
            admit = 0
            for bit, col in part:
                if cube & bit:
                    admit |= col
            empty = all_rows & ~admit
            twos |= ones & empty
            ones |= empty
            empties.append(empty)
        critical = ones & ~twos
        out = 0
        if critical:
            for part, empty in zip(parts, empties):
                rows = empty & critical
                if rows:
                    for bit, col in part:
                        if col & rows:
                            out |= bit
        return out

    return blocked


def best_raise(others: Sequence[int], cube: int, candidates: int) -> int:
    """Covering-directed raise choice among ``candidates`` bits:
    maximize (on-set rows covered by the grown cube, rows admitting
    the bit); first candidate bit (ascending) wins ties.  Returns
    0 when ``candidates`` is 0."""
    best_bit = 0
    best_key = (-1, -1)
    bits = candidates
    while bits:
        bit = bits & -bits
        bits &= bits - 1
        grown_outside = ~(cube | bit)
        covered = 0
        column = 0
        for o in others:
            if o & bit:
                column += 1
            if not o & grown_outside:
                covered += 1
        key = (covered, column)
        if key > best_key:
            best_key = key
            best_bit = bit
    return best_bit
