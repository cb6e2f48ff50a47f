"""EXPAND: grow each cube into a prime implicant against the off-set.

Each cube is expanded one position at a time.  A raise is *feasible*
when the grown cube still avoids every off-set cube; among feasible
raises the one covering the most other on-set cubes (then the most
popular column) is taken, which is the essence of ESPRESSO's
covering-directed expansion without the full blocking/covering matrix
machinery.

Feasibility and scoring are cube-list primitives
(:mod:`repro.cubes.bulk`): ``blocker`` holds the off-set column-wise
once per off-set and answers each raise round's blocked-bit mask (the
*critical* off rows, those with exactly one blocking part) with a few
ANDs, and ``best_raise`` scores every candidate bit against all
remaining on-set rows at once.  The results are bit-identical to the
historical incremental per-cube bookkeeping: recomputing the blocking
parts against the grown cube each round gives the same critical set
the incremental updates maintained.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..cubes import Space, bulk

__all__ = ["Blocked", "expand", "expand_cube", "expand_cube_with", "expand_with"]

#: ``blocked(cube)``: the raise bits of ``cube`` that hit the off-set
Blocked = Callable[[int], int]


def expand_cube(
    space: Space,
    cube: int,
    off: Sequence[int],
    others: Sequence[int] = (),
) -> int:
    """Expand ``cube`` to a prime implicant of the complement of ``off``.

    ``others`` (remaining on-set cubes) only steer the raise order.
    """
    return expand_cube_with(space, cube, bulk.blocker(space, off), others)


def expand_cube_with(
    space: Space, cube: int, blocked: Blocked, others: Sequence[int]
) -> int:
    """:func:`expand_cube` with the off-set behind ``blocked``."""
    free_bits = space.universe & ~cube
    while free_bits:
        candidates = free_bits & ~blocked(cube)
        best_bit = bulk.best_raise(others, cube, candidates)
        if not best_bit:
            break
        cube |= best_bit
        free_bits &= ~best_bit
    return cube


def expand(
    space: Space,
    onset: List[int],
    off: Sequence[int],
) -> List[int]:
    """Expand every cube of ``onset``; drop cubes covered along the way.

    Cubes are processed smallest-first (ascending weight), the standard
    ESPRESSO order: small cubes benefit most from expansion and their
    primes tend to cover the larger ones.
    """
    return expand_with(space, onset, bulk.blocker(space, off))


def expand_with(space: Space, onset: List[int], blocked: Blocked) -> List[int]:
    """EXPAND's cube-list pass with the off-set behind ``blocked``.

    ``blocked(cube)`` returns the raise bits of ``cube`` that would make
    it hit the off-set; everything else (visit order, raise choice,
    swallowed cubes, the final dedup) is a cube-list primitive.
    ESPRESSO builds ``blocked`` once per off-set with
    :func:`repro.cubes.bulk.blocker`; truth-table scoring
    (:mod:`repro.espresso.truthtable`) passes its own.
    """
    weights = bulk.popcounts(onset)
    order = sorted(range(len(onset)), key=weights.__getitem__)
    covered = [False] * len(onset)
    primes: List[int] = []
    for idx in order:
        if covered[idx]:
            continue
        others = [onset[j] for j in order if j != idx and not covered[j]]
        prime = expand_cube_with(space, onset[idx], blocked, others)
        swallowed = bulk.contained_rows(onset, prime)
        for j in order:
            if j != idx and not covered[j] and swallowed[j]:
                covered[j] = True
        primes.append(prime)
    # a later prime can swallow an earlier one
    keep = bulk.dedup_keep_mask(primes)
    return [prime for prime, kept in zip(primes, keep) if kept]
