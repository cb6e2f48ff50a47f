"""EXPAND: grow each cube into a prime implicant against the off-set.

Each cube is expanded one position at a time.  A raise is *feasible*
when the grown cube still avoids every off-set cube; among feasible
raises the one covering the most other on-set cubes (then the most
popular column) is taken, which is the essence of ESPRESSO's
covering-directed expansion without the rest of its machinery.

Both sets are held column-wise, as ESPRESSO's blocking and covering
matrices (Brayton et al. 1984), with the cube-list primitives of
:mod:`repro.cubes.bulk`.  ``blocker`` transposes the off-set once per
off-set and answers each raise round's blocked-bit mask (the
*critical* off rows, those with exactly one blocking part) with a few
ANDs.  A pass transposes its on-set once (``columns``: ``cols[b]`` is
the int mask of the rows admitting bit ``b``) and keeps the rows not
yet swallowed by a prime as one int.  A round with no candidate ends
the cube and a round with one takes it; otherwise ``choose_raise``
finds the rows with exactly one bit outside the cube by a ones/twos
fold over the free bits' columns and scores every candidate with two
popcounts.  The rows a prime swallows are those outside the OR of the
columns of its free bits.  Every prime, its order and every cover are
list-equal to the row-wise scoring this replaced (one scan of the
remaining rows per candidate bit), which ``tests/test_expand_oracle.py``
keeps as its oracle.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..cubes import Space, bulk

__all__ = ["Blocked", "expand", "expand_cube", "expand_cubes_with", "expand_with"]

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
    return expand_cubes_with(space, [cube], bulk.blocker(space, off), others)[0]


def expand_cubes_with(
    space: Space, cubes: Sequence[int], blocked: Blocked, others: Sequence[int]
) -> List[int]:
    """:func:`expand_cube` of each of ``cubes`` with the off-set behind
    ``blocked``; ``others`` is transposed once for all of them."""
    cols = bulk.columns(space, others)
    rows = (1 << len(others)) - 1
    return [_raise(space.universe, cube, blocked, cols, rows) for cube in cubes]


def _raise(
    universe: int, cube: int, blocked: Blocked, cols: List[int], rows: int
) -> int:
    """Raise ``cube`` to a prime, steered by the on-set ``rows`` of
    the column-wise ``cols``."""
    free = universe & ~cube
    while free:
        candidates = free & ~blocked(cube)
        if candidates & (candidates - 1):
            candidates = bulk.choose_raise(cols, rows, free, candidates)
        elif not candidates:
            break
        cube |= candidates
        free &= ~candidates
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
    it hit the off-set.  The pass holds ``onset`` column-wise
    (:func:`repro.cubes.bulk.columns`) and the rows no prime has
    swallowed yet as one int; the raise choice and the final dedup
    are cube-list primitives.
    ESPRESSO builds ``blocked`` once per off-set with
    :func:`repro.cubes.bulk.blocker`.
    """
    weights = bulk.popcounts(onset)
    order = sorted(range(len(onset)), key=weights.__getitem__)
    universe = space.universe
    cols = bulk.columns(space, onset)
    # the rows no prime has swallowed yet; a visited row stays in
    alive = (1 << len(onset)) - 1
    primes: List[int] = []
    for idx in order:
        row = 1 << idx
        if not alive & row:
            continue
        prime = _raise(universe, onset[idx], blocked, cols, alive & ~row)
        # a row is swallowed when none of its bits is outside the prime
        outside = 0
        bits = universe & ~prime
        while bits:
            low = bits & -bits
            outside |= cols[low.bit_length() - 1]
            bits ^= low
        alive &= outside | row
        primes.append(prime)
    # a later prime can swallow an earlier one
    keep = bulk.dedup_keep_mask(space, primes)
    return [prime for prime, kept in zip(primes, keep) if kept]
