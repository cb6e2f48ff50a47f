"""The bulk cube kernel: a packed cover is a list of int rows.

A *packed cover* is an opaque, immutable-by-convention value:
algorithm code must only manipulate it through kernel primitives and
convert to/from ``List[int]`` cubes with :meth:`pack`/:meth:`unpack`
at the ``Cover`` boundary.

Row *masks* (boolean selections returned by the ``*_rows`` primitives)
are indexable sequences of truthy values aligned with the packed rows;
feed them back to :meth:`select`.

Every primitive is defined so that, composed as the algorithm layer
does, it reproduces the legacy per-cube int loops **exactly** —
including tie-breaking (first strict maximum), stable sort orders and
the greedy absorption result — so solver output is the same as with
the per-cube functions in :mod:`repro.cubes.cube`, which
``tests/test_bulk_kernel.py`` pins down.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from ..cube import cube_size as _cube_size
from ..cube import sharp as _sharp
from ..space import Space

__all__ = ["PythonKernel", "bit_count"]

try:  # Python >= 3.10
    bit_count = int.bit_count
except AttributeError:  # pragma: no cover - py3.9 fallback

    def bit_count(x: int) -> int:
        return bin(x).count("1")


class PythonKernel:
    """Bulk cover primitives over plain ``List[int]`` packed covers."""

    name = "python"

    # -- conversion boundary -------------------------------------------
    def pack(self, space: Space, cubes: Sequence[int]) -> List[int]:
        """Packed form of a cube list (row order preserved)."""
        return list(cubes)

    def unpack(self, space: Space, packed: List[int]) -> List[int]:
        """Back to a plain cube list (row order preserved)."""
        return list(packed)

    # -- structural ----------------------------------------------------
    def length(self, packed: List[int]) -> int:
        return len(packed)

    def row(self, space: Space, packed: List[int], i: int) -> int:
        """Row ``i`` as a legacy int cube."""
        return packed[i]

    def empty(self, space: Space) -> List[int]:
        return []

    def single(self, space: Space, cube: int) -> List[int]:
        return [cube]

    def concat(self, space: Space, a: List[int], b: List[int]) -> List[int]:
        return list(a) + list(b)

    def gather(
        self, space: Space, packed: List[int], indices: Sequence[int]
    ) -> List[int]:
        """Rows at ``indices``, in that order (fancy indexing)."""
        return [packed[i] for i in indices]

    def delete_row(self, space: Space, packed: List[int], i: int) -> List[int]:
        return packed[:i] + packed[i + 1 :]

    def with_row(
        self, space: Space, packed: List[int], i: int, cube: int
    ) -> List[int]:
        out = list(packed)
        out[i] = cube
        return out

    def select(self, space: Space, packed: List[int], mask) -> List[int]:
        """Rows whose mask entry is truthy, original order preserved."""
        return [c for c, keep in zip(packed, mask) if keep]

    # -- whole-cover folds ---------------------------------------------
    def or_fold(self, space: Space, packed: List[int]) -> int:
        """Supercube fold: OR of all rows (0 for an empty cover)."""
        out = 0
        for c in packed:
            out |= c
        return out

    def union_info(self, space: Space, packed: List[int]) -> Tuple[int, bool]:
        """``(or_fold, has_universe_row)`` in one pass."""
        universe = space.universe
        union = 0
        found = False
        for c in packed:
            union |= c
            if c == universe:
                found = True
                break
        return union, found

    def popcounts(self, space: Space, packed: List[int]) -> List[int]:
        """Per-row popcount (the cube *weight* used for sort orders)."""
        return [bit_count(c) for c in packed]

    def nonfull_counts(self, space: Space, packed: List[int]) -> List[int]:
        """Per part: number of rows whose field is not full."""
        counts = []
        for mask in space.part_masks:
            n = 0
            for c in packed:
                if c & mask != mask:
                    n += 1
            counts.append(n)
        return counts

    def is_unate(self, space: Space, packed: List[int]) -> bool:
        """True when, per part, all non-full fields are identical."""
        for mask in space.part_masks:
            seen = -1
            for c in packed:
                field = c & mask
                if field != mask:
                    if seen < 0:
                        seen = field
                    elif field != seen:
                        return False
        return True

    def binate_part(self, space: Space, packed: List[int]) -> int:
        """Part non-full in the most rows; first part wins ties."""
        best_part = -1
        best_score = -1
        for part, score in enumerate(self.nonfull_counts(space, packed)):
            if score > best_score:
                best_score = score
                best_part = part
        return best_part

    # -- row masks -----------------------------------------------------
    def void_mask(self, space: Space, packed: List[int]) -> List[bool]:
        """Per row: is some part field empty (the cube denotes {})?"""
        masks = space.part_masks
        out = []
        for c in packed:
            void = False
            for m in masks:
                if not c & m:
                    void = True
                    break
            out.append(void)
        return out

    def contains_rows(
        self, space: Space, packed: List[int], cube: int
    ) -> List[bool]:
        """Per row: does the row contain ``cube`` (row ⊇ cube)?"""
        return [not cube & ~c for c in packed]

    def contained_rows(
        self, space: Space, packed: List[int], cube: int
    ) -> List[bool]:
        """Per row: is the row contained in ``cube`` (row ⊆ cube)?"""
        return [not c & ~cube for c in packed]

    def admits_rows(
        self, space: Space, packed: List[int], cube: int
    ) -> List[bool]:
        """Per row: does the row share any raw bit with ``cube``?"""
        return [bool(c & cube) for c in packed]

    def intersects_any(
        self, space: Space, packed: List[int], cube: int
    ) -> bool:
        """True when some row has a non-void meet with ``cube``."""
        masks = space.part_masks
        for c in packed:
            meet = c & cube
            for m in masks:
                if not meet & m:
                    break
            else:
                return True
        return False

    # -- cofactor / restriction ----------------------------------------
    def cofactor_value(
        self, space: Space, packed: List[int], part: int, value: int
    ) -> List[int]:
        """Cofactor against value ``value`` of ``part``: keep rows
        admitting the value and raise their ``part`` field to full."""
        mask = space.part_masks[part]
        bit = 1 << (space.offsets[part] + value)
        return [c | mask for c in packed if c & bit]

    def cofactor_cube(
        self, space: Space, packed: List[int], pivot: int
    ) -> List[int]:
        """ESPRESSO cofactor against a pivot cube: rows with a void
        meet are dropped, the rest are lifted outside the pivot."""
        lifted = space.universe & ~pivot
        masks = space.part_masks
        out = []
        for c in packed:
            meet = c & pivot
            for m in masks:
                if not meet & m:
                    break
            else:
                out.append(c | lifted)
        return out

    def and_rows(self, space: Space, packed: List[int], cube: int) -> List[int]:
        """AND every row with ``cube`` (rows may become void)."""
        return [c & cube for c in packed]

    # -- cover surgery -------------------------------------------------
    def merge_part(
        self, space: Space, packed: List[int], part: int
    ) -> List[int]:
        """Merge rows identical outside ``part`` by OR-ing the fields;
        output order is first occurrence of each outside-key."""
        mask = space.part_masks[part]
        merged = {}
        for c in packed:
            key = c & ~mask
            merged[key] = merged.get(key, 0) | (c & mask)
        return [key | field for key, field in merged.items()]

    def absorb(self, space: Space, packed: List[int]) -> List[int]:
        """Single-call pairwise absorption, bit-exact with the legacy
        greedy pass: stable-sort rows by descending popcount, keep a
        row iff it is contained in no strictly earlier row (by
        transitivity that equals "no earlier *kept* row")."""
        order = sorted(packed, key=bit_count, reverse=True)
        result: List[int] = []
        for cube in order:
            for big in result:
                if not cube & ~big:
                    break
            else:
                result.append(cube)
        return result

    def dedup_keep_mask(
        self, space: Space, packed: List[int]
    ) -> List[bool]:
        """EXPAND's final dedup: drop row ``i`` when another row ``j``
        contains it and is either distinct or earlier (``j < i``)."""
        keep = []
        for i, c in enumerate(packed):
            drop = False
            for j, d in enumerate(packed):
                if j != i and not c & ~d and (d != c or j < i):
                    drop = True
                    break
            keep.append(not drop)
        return keep

    def cross_intersect(
        self, space: Space, a: List[int], b: List[int]
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

    # -- counting ------------------------------------------------------
    def minterm_count(self, space: Space, packed: List[int]) -> int:
        """Exact number of distinct minterms covered (disjoint sharp)."""
        disjoint: List[int] = []
        for cube in packed:
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

    # -- EXPAND support ------------------------------------------------
    def blocker(
        self, space: Space, off: List[int]
    ) -> Callable[[int], int]:
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

    def best_raise(
        self, space: Space, others: List[int], cube: int, candidates: int
    ) -> int:
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
