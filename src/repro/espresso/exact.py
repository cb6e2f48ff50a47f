"""Exact two-level minimization (Quine–McCluskey style).

For small functions only: all primes are generated by iterated
per-part consensus with absorption (complete for multi-valued covers),
then a minimum prime cover is found by branch-and-bound unate covering
with essential-column and row/column dominance reductions.

Used by the test-suite as ground truth for the heuristic minimizer and
for :mod:`repro.espresso.truthtable`; the truth-table scorer shares
the covering search, :func:`_min_cover`, on its own primes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from ..cubes import Space, absorb, contains, cube_size
from ..cubes.bulk import bit_count

__all__ = ["all_primes", "exact_minimize", "ExactLimitError"]


class ExactLimitError(RuntimeError):
    """The problem is too large for the exact minimizer."""


def _part_consensus(space: Space, a: int, b: int) -> List[int]:
    """All per-part consensus cubes of ``a`` and ``b`` (may be empty)."""
    meet = a & b
    void = space.void_tops(meet)
    if void & (void - 1):
        return []
    results: List[int] = []
    for mask in space.part_masks:
        raised = (meet & ~mask) | ((a | b) & mask)
        if mask & void:
            return [raised]
        # distance 0: raising any single part can produce a new implicant
        if not void and raised != meet:
            results.append(raised)
    return results


def all_primes(
    space: Space,
    onset: Sequence[int],
    dcset: Sequence[int] = (),
    *,
    max_primes: int = 5000,
) -> List[int]:
    """All prime implicants of onset+dcset via iterated consensus."""
    cover = absorb(list(onset) + list(dcset))
    changed = True
    while changed:
        changed = False
        new_cubes: List[int] = []
        for i in range(len(cover)):
            for j in range(i + 1, len(cover)):
                for cand in _part_consensus(space, cover[i], cover[j]):
                    if any(contains(c, cand) for c in cover):
                        continue
                    if any(contains(c, cand) for c in new_cubes):
                        continue
                    new_cubes.append(cand)
        if new_cubes:
            cover = absorb(cover + new_cubes)
            changed = True
            if len(cover) > max_primes:
                raise ExactLimitError(
                    f"prime generation exceeded {max_primes} cubes"
                )
    return cover


def _care_minterms(
    space: Space,
    onset: Sequence[int],
    dcset: Sequence[int],
    max_minterms: int,
) -> List[int]:
    minterms: Set[int] = set()
    for cube in onset:
        if cube_size(space, cube) > max_minterms:
            raise ExactLimitError("cube too large to enumerate")
        minterms.update(_expand_minterms(space, cube))
        if len(minterms) > max_minterms:
            raise ExactLimitError(
                f"more than {max_minterms} care minterms"
            )
    return [
        m
        for m in minterms
        if not any(contains(d, m) for d in dcset)
    ]


def _expand_minterms(space: Space, cube: int) -> List[int]:
    choices: List[List[int]] = []
    for part, size in enumerate(space.part_sizes):
        field = space.field(cube, part)
        opts = [v for v in range(size) if field & (1 << v)]
        choices.append(opts)
    result: List[int] = []

    def rec(part: int, acc: int) -> None:
        if part == space.num_parts:
            result.append(acc)
            return
        for v in choices[part]:
            rec(part + 1, acc | (1 << space.position(part, v)))

    rec(0, 0)
    return result


def exact_minimize(
    space: Space,
    onset: Sequence[int],
    dcset: Sequence[int] = (),
    *,
    max_minterms: int = 4096,
    max_primes: int = 5000,
) -> List[int]:
    """A minimum-cardinality prime cover of the on-set.

    Raises :class:`ExactLimitError` on problems beyond the configured
    size limits.
    """
    if not onset:
        return []
    primes = all_primes(space, onset, dcset, max_primes=max_primes)
    minterms = _care_minterms(space, onset, dcset, max_minterms)
    if not minterms:
        return []
    rows: List[int] = []
    for m in minterms:
        cols = 0
        for i, p in enumerate(primes):
            if contains(p, m):
                cols |= 1 << i
        if not cols:
            raise AssertionError("care minterm not covered by any prime")
        rows.append(cols)
    chosen = _min_cover(rows)
    return [p for i, p in enumerate(primes) if chosen >> i & 1]


def _min_cover(rows: List[int]) -> int:
    """Minimum-column cover of the rows (branch and bound).

    A row is the bitmask of the columns that cover it; the result is
    the bitmask of the columns picked.
    """
    best: List[Optional[int]] = [None]

    def search(rows_left: List[int], picked: int) -> None:
        reduced = _reduce(rows_left, picked, best)
        if reduced is None:
            return
        rows_left, picked = reduced
        if not rows_left:
            if best[0] is None or bit_count(picked) < bit_count(best[0]):
                best[0] = picked
            return
        # lower bound: a set of pairwise-disjoint rows needs one column each
        bound = bit_count(picked) + _independent_rows(rows_left)
        if best[0] is not None and bound >= bit_count(best[0]):
            return
        # branch on the hardest row (fewest choices): _reduce returns
        # the rows sorted by size, so it is the first
        row = rows_left[0]
        while row:
            col = row & -row
            row ^= col
            sub = [r for r in rows_left if not r & col]
            search(sub, picked | col)

    search(rows, 0)
    assert best[0] is not None
    return best[0]


def _reduce(
    rows: List[int], picked: int, best: List[Optional[int]]
) -> Optional[Tuple[List[int], int]]:
    """Essential columns + row dominance until fixed point: the rows
    left, sorted by size, and the columns picked, or ``None`` once the
    picked columns cannot beat ``best``."""
    rows = list(rows)
    while True:
        # essential columns: rows with a single choice
        essentials = 0
        for r in rows:
            if not r & (r - 1):
                essentials |= r
        if essentials:
            picked |= essentials
            if best[0] is not None and (
                bit_count(picked) >= bit_count(best[0])
            ):
                return None
            rows = [r for r in rows if not r & essentials]
            continue
        # row dominance: a superset row is implied by its subset row
        rows.sort(key=bit_count)
        kept: List[int] = []
        for r in rows:
            outside = ~r
            for k in kept:
                if not k & outside:
                    break
            else:
                kept.append(r)
        if len(kept) != len(rows):
            rows = kept
            continue
        return rows, picked


def _independent_rows(rows: List[int]) -> int:
    """Greedy maximal set of pairwise-disjoint rows (covering lower
    bound); ``rows`` is sorted by size."""
    used = 0
    count = 0
    for r in rows:
        if not r & used:
            count += 1
            used |= r
    return count
