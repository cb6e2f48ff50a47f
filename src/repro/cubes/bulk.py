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
    "binate_part",
    "bit_count",
    "blocker",
    "choose_raise",
    "cofactor_cube",
    "cofactor_rows",
    "cofactor_value",
    "columns",
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
    meet are dropped, the rest are lifted outside the pivot.  The
    void test is :meth:`Space.void_tops`, inlined."""
    lifted = space.universe & ~pivot
    tops = space.tops
    low = space.low
    pivot_low = pivot & low
    return [
        c | lifted
        for c in cover
        if ((c & pivot_low) + low | c & pivot) & tops == tops
    ]


def cofactor_rows(
    space: Space, cover: Sequence[int], cols: Sequence[int], rows: int,
    pivot: int,
) -> List[int]:
    """:func:`cofactor_cube` of the rows of ``cover`` in the int mask
    ``rows``, in row order, with ``cols`` the columns of ``cover``
    (:func:`columns`).

    A row meets ``pivot`` in a part where the pivot is not full when
    it is in the OR of the columns of the pivot's bits there, so the
    rows meeting the pivot are the AND of those ORs: one big-int
    operation per literal of the pivot instead of a test per row.  A
    part where the pivot is full is not looked at, so a surviving row
    is kept only when it is not void.
    """
    for mask in space.part_masks:
        field = pivot & mask
        if field != mask:
            admit = 0
            while field:
                bit = field & -field
                admit |= cols[bit.bit_length() - 1]
                field ^= bit
            rows &= admit
            if not rows:
                return []
    lifted = space.universe & ~pivot
    tops = space.tops
    low = space.low
    out = []
    while rows:
        row = rows & -rows
        c = cover[row.bit_length() - 1]
        if ((c & low) + low | c) & tops == tops:
            out.append(c | lifted)
        rows ^= row
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


def dedup_keep_mask(space: Space, cover: Sequence[int]) -> List[bool]:
    """EXPAND's final dedup: drop row ``i`` when another row ``j``
    contains it and is either distinct or earlier (``j < i``).

    The rows containing row ``i`` are the AND of the columns
    (:func:`columns`) of its bits; a column that every row admits
    changes nothing and is skipped.  Only a row equal to row ``i``
    and after it is compared as an int.
    """
    cols = columns(space, cover)
    all_rows = (1 << len(cover)) - 1
    common = 0
    for b, col in enumerate(cols):
        if col == all_rows:
            common |= 1 << b
    keep = []
    for i, c in enumerate(cover):
        row = 1 << i
        over = all_rows
        bits = c & ~common
        while bits:
            low = bits & -bits
            over &= cols[low.bit_length() - 1]
            bits ^= low
        over ^= row
        if not over & (row - 1):
            # only a later row that differs from row i drops it
            while over and cover[(over & -over).bit_length() - 1] == c:
                over &= over - 1
        keep.append(not over)
    return keep


def cross_intersect(
    space: Space, a: Sequence[int], b: Sequence[int]
) -> List[int]:
    """All pairwise meets ``a_i & b_j`` (a-major order), voids
    dropped — the row-wise intersect matrix flattened, with
    :meth:`Space.void_tops` inlined."""
    tops = space.tops
    low = space.low
    out = []
    for x in a:
        for y in b:
            c = x & y
            if ((c & low) + low | c) & tops == tops:
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
#: :func:`columns` loops over the bits of a cover of fewer cells
#: (rows x width) than this, and transposes digit strings otherwise
_LOOP_CELLS = 80


def columns(space: Space, cover: Sequence[int]) -> List[int]:
    """The cover column-wise, as ESPRESSO's blocking and covering
    matrices hold it (Brayton et al. 1984): ``cols[b]`` has bit ``i``
    set when row ``i`` admits bit ``b``.

    The transpose runs on the rows' binary digits: one string per
    row, last row first, so that each column's digits read as its
    int.  The strings cost a fixed ~5 us, so a cover of fewer than
    ``_LOOP_CELLS`` cells loops over each row's set bits instead.
    The two take the same time at 6-8 rows of width 10, the width of
    all of ENC's truth-table covers (most of them have 1-5 rows), and
    at 2-4 rows of width 30-50.
    """
    if len(cover) * space.width < _LOOP_CELLS:
        cols = [0] * space.width
        for i, c in enumerate(cover):
            row = 1 << i
            while c:
                low = c & -c
                cols[low.bit_length() - 1] |= row
                c ^= low
        return cols
    digits = "0%db" % space.width
    rows = [format(c, digits) for c in reversed(cover)]
    cols = [int("".join(column), 2) for column in zip(*rows)]
    cols.reverse()
    return cols


def blocker(space: Space, off: Sequence[int]) -> Callable[[int], int]:
    """EXPAND's blocking check against a fixed off-set.

    Returns ``blocked(cube)``: the union of raise bits blocked by
    the off-set.  For every off row whose meet with ``cube`` is
    empty in exactly one part (a *critical*, distance-one row),
    the values it admits in that part may not be raised.

    The off-set is held column-wise (:func:`columns`).  The rows
    with an empty meet in part ``p`` are then
    ``all & ~OR(cols[b] for b in cube ∩ p)``, precomputed for a
    field that is full; a ones/twos accumulator over the parts keeps
    the rows empty in exactly one part, and bit ``b`` of part ``p``
    is blocked when ``cols[b]`` meets those rows of ``p``: one AND
    per bit instead of a scan over every row and part.
    """
    cols = columns(space, off)
    all_rows = (1 << len(off)) - 1
    # per part: (offset, full field, its columns, the rows void in
    # it), and (bit, column) for each of its positions
    parts = []
    part_bits = []
    for offset, size in zip(space.offsets, space.part_sizes):
        part_cols = cols[offset:offset + size]
        void = all_rows
        for col in part_cols:
            void &= ~col
        parts.append((offset, (1 << size) - 1, part_cols, void))
        part_bits.append(
            [(1 << (offset + v), col) for v, col in enumerate(part_cols)]
        )

    def blocked(cube: int) -> int:
        ones = twos = 0
        empties = []
        for offset, full, part_cols, void in parts:
            field = cube >> offset & full
            if field == full:
                empty = void
            else:
                admit = 0
                while field:
                    low = field & -field
                    admit |= part_cols[low.bit_length() - 1]
                    field ^= low
                empty = all_rows & ~admit
            twos |= ones & empty
            ones |= empty
            empties.append(empty)
        critical = ones & ~twos
        out = 0
        if critical:
            for bits, empty in zip(part_bits, empties):
                rows = empty & critical
                if rows:
                    for bit, col in bits:
                        if col & rows:
                            out |= bit
        return out

    return blocked


def choose_raise(
    cols: Sequence[int], rows: int, free: int, candidates: int
) -> int:
    """Covering-directed raise choice among ``candidates`` bits.

    ``cols`` is the on-set column-wise (:func:`columns`), ``rows``
    the mask of on-set rows that steer the choice, and ``free`` the
    bits outside the cube being expanded.  A ones/twos fold of the
    free bits' columns finds the rows with exactly one bit outside
    the cube; raising bit ``b`` covers those of them in ``cols[b]``.
    The choice maximizes (rows the raise covers, rows admitting the
    bit), and the lowest candidate bit wins ties.  Returns 0 when
    ``candidates`` is 0.
    """
    ones = twos = 0
    bits = free
    while bits:
        low = bits & -bits
        bits ^= low
        col = cols[low.bit_length() - 1]
        twos |= ones & col
        ones |= col
    single = rows & ones & ~twos
    best_bit = 0
    best_key = (-1, -1)
    bits = candidates
    while bits:
        low = bits & -bits
        bits ^= low
        col = cols[low.bit_length() - 1]
        key = (bit_count(single & col), bit_count(rows & col))
        if key > best_key:
            best_key = key
            best_bit = low
    return best_bit
