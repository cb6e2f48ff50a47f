"""Minimized cover sizes of small single-output functions, on truth tables.

A face constraint's function (footnote 2 of the paper) lives on the
``nv``-bit code space: on-set = member codes, off-set = the other used
codes, don't-cares = the unused codes.  For ``nv <= MAX_VARS`` the
whole function fits in one ``2**nv``-bit ``int`` whose bit ``m`` stands
for code ``m``, and the per-``nv`` table ``tt`` maps every cube of
``Space.binary(nv)`` to its minterm mask.  Each set-valued question the
minimizers ask then becomes a few bitwise operations:

* off-set: ``full & ~(on | dc)``;
* EXPAND's blocked raises: bit ``b`` is blocked iff ``tt[cube|b] & off``;
* IRREDUNDANT's containment: ``tt[c] & ~(tt[rest] | dc) == 0``;
* REDUCE: the supercube of ``tt[c] & ~(tt[rest] | dc)``.

:func:`cover_size` returns ``len(exact_minimize(...))`` for ``exact``
and ``len(espresso(..., use_lastgasp=False))`` otherwise, bit for bit:

* The minimum cover size does not depend on how it is found, so the
  exact path finds the primes on bitmasks and hands them to
  :mod:`repro.espresso.exact`'s own minimum-cover search.
* The heuristic path runs espresso's passes in espresso's order.  Its
  cube-list steps (visit orders, raise choice, swallowed cubes, dedup,
  cost) are the cube kernel's and :mod:`repro.espresso.expand`'s own.
  The set-valued steps above depend only on the function, never on how
  a cover lists it.  Espresso's ESSENTIALS split and final IRREDUNDANT
  change nothing right after an IRREDUNDANT pass (every cube left is
  already relatively essential), so they are not repeated here.

``tests/test_truthtable.py`` pins both paths to :mod:`repro.espresso`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

from ..cubes import Space, absorb
from ..cubes.bulk import active_kernel
from ..obs import resolve_tracer
from ..runtime import InvalidSpecError
from .exact import _min_cover
from .expand import expand_with
from .minimize import MAX_ITERATIONS, cover_cost

__all__ = ["MAX_VARS", "cover_size"]

#: the largest code space a truth table covers: 2**7 bits per function
#: and 4**7 entries in the cube table
MAX_VARS = 7

_KERNEL = active_kernel()


class _Tables:
    """The lookup tables of one ``nv``, built on first use."""

    def __init__(self, nv: int) -> None:
        size = 1 << nv
        self.space = Space.binary(nv)
        self.full = (1 << size) - 1
        #: (codes with the literal, cube bit of the literal), per literal
        self.literals: List[Tuple[int, int]] = []
        #: cube index -> minterm mask; part p's field is bits 2p, 2p+1
        self.tt = [self.full]
        for part in range(nv):
            shift = nv - 1 - part  # part 0 is the code's MSB
            ones = sum(1 << m for m in range(size) if m >> shift & 1)
            zeros = self.full & ~ones
            self.literals += [(zeros, 1 << 2 * part), (ones, 2 << 2 * part)]
            self.tt = [
                t & field
                for field in (0, zeros, ones, self.full)
                for t in self.tt
            ]
        #: code -> its minterm cube
        self.minterms = [self.supercube(1 << m) for m in range(size)]
        #: every non-void cube
        self.cubes = [c for c, t in enumerate(self.tt) if t]

    def supercube(self, mask: int) -> int:
        """The smallest cube holding every minterm of ``mask``."""
        return sum(bit for codes, bit in self.literals if mask & codes)

    def blocked(self, off: int):
        """``blocked(cube)``: the raise bits of ``cube`` whose grown cube
        meets the minterm mask ``off`` (EXPAND's blocked raises)."""
        tt = self.tt
        universe = self.space.universe

        def blocked(cube: int) -> int:
            hit = 0
            free = universe & ~cube
            while free:
                bit = free & -free
                free ^= bit
                if tt[cube | bit] & off:
                    hit |= bit
            return hit

        return blocked


@lru_cache(maxsize=None)
def _tables(nv: int) -> _Tables:
    return _Tables(nv)


def cover_size(
    nv: int,
    onset: Sequence[int],
    dc: int,
    *,
    exact: bool,
    tracer=None,
) -> int:
    """Cubes in the minimized cover of one single-output function.

    ``onset`` lists the on-set codes in the order espresso would see
    their minterms; ``dc`` is the bitmask of don't-care codes.  The
    result equals ``len(exact_minimize(...))`` when ``exact`` and
    ``len(espresso(..., use_lastgasp=False))`` otherwise.  ``tracer``
    counts the call (``truthtable.minimizations``).
    """
    if not 1 <= nv <= MAX_VARS:
        raise InvalidSpecError(
            f"truth tables cover 1..{MAX_VARS} variables, not {nv}"
        )
    resolve_tracer(tracer).count("truthtable.minimizations")
    tables = _tables(nv)
    if exact:
        return _minimum(tables, onset, dc)
    return _espresso(tables, onset, dc)


# ----------------------------------------------------------------------
# exact: minimum prime cover
# ----------------------------------------------------------------------
def _minimum(tables: _Tables, onset: Sequence[int], dc: int) -> int:
    tt = tables.tt
    on = 0
    for code in onset:
        on |= 1 << code
    care = on & ~dc
    if not care:
        return 0
    outside = tables.full & ~(on | dc)
    blocked = tables.blocked(outside)
    universe = tables.space.universe
    # the care minterms of every prime: an implicant no raise keeps one
    columns = sorted({
        tt[cube] & care
        for cube in tables.cubes
        if tt[cube] & care
        and not tt[cube] & outside
        and blocked(cube) == universe & ~cube
    })
    rows = []
    bits = care
    while bits:
        bit = bits & -bits
        bits ^= bit
        rows.append(frozenset(i for i, c in enumerate(columns) if c & bit))
    return len(_min_cover(rows, len(columns)))


# ----------------------------------------------------------------------
# heuristic: espresso's loop
# ----------------------------------------------------------------------
def _espresso(tables: _Tables, onset: Sequence[int], dc: int) -> int:
    space = tables.space
    tt = tables.tt
    cover = absorb([tables.minterms[code] for code in onset])
    if not cover:
        return 0
    on = 0
    for cube in cover:
        on |= tt[cube]
    blocked = tables.blocked(tables.full & ~(on | dc))
    cover = expand_with(space, _KERNEL, cover, blocked)
    cover = _irredundant(tables, cover, dc)
    best = cover_cost(space, cover)
    for _ in range(MAX_ITERATIONS):
        cover = _reduce(tables, cover, dc)
        cover = expand_with(space, _KERNEL, cover, blocked)
        cover = _irredundant(tables, cover, dc)
        cost = cover_cost(space, cover)
        if cost >= best:
            break
        best = cost
    return len(cover)


def _rest(masks: List[int], i: int, dc: int) -> int:
    """Minterms of every cube but the ``i``-th, plus the don't-cares."""
    rest = dc
    for j, mask in enumerate(masks):
        if j != i:
            rest |= mask
    return rest


def _irredundant(tables: _Tables, cover: List[int], dc: int) -> List[int]:
    """IRREDUNDANT: drop, smallest cubes first, each cube the rest covers."""
    weights = _KERNEL.popcounts(tables.space, cover)
    order = sorted(range(len(cover)), key=weights.__getitem__)
    keep = [cover[i] for i in order]
    masks = [tables.tt[cube] for cube in keep]
    i = 0
    while i < len(keep):
        if masks[i] & ~_rest(masks, i, dc):
            i += 1
        else:
            del keep[i], masks[i]
    return keep


def _reduce(tables: _Tables, cover: List[int], dc: int) -> List[int]:
    """REDUCE: shrink, largest cubes first, each cube to its unique part."""
    weights = _KERNEL.popcounts(tables.space, cover)
    order = sorted(range(len(cover)), key=weights.__getitem__, reverse=True)
    cubes = list(cover)
    masks = [tables.tt[cube] for cube in cubes]
    for i in order:
        unique = masks[i] & ~_rest(masks, i, dc)
        if unique:
            cubes[i] = tables.supercube(unique)
            masks[i] = tables.tt[cubes[i]]
    return cubes
