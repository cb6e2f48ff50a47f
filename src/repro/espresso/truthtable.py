"""Minimum cover sizes of small single-output functions, on truth tables.

A face constraint's function (footnote 2 of the paper) lives on the
``nv``-bit code space: on-set = member codes, off-set = the other used
codes, don't-cares = the unused codes.  For ``nv <= MAX_VARS`` the
whole function fits in one ``2**nv``-bit ``int`` whose bit ``m`` stands
for code ``m``, and the per-``nv`` table ``tt`` maps every cube of
``Space.binary(nv)`` to its minterm mask.  Each set-valued question the
minimizer asks then becomes a few bitwise operations:

* off-set: ``full & ~(on | dc)``;
* a cube is an implicant iff ``not tt[cube] & off``;
* it is prime iff every raise bit ``b`` is blocked: ``tt[cube|b] & off``.

:func:`cover_size` returns ``len(exact_minimize(...))``: the minimum
cover size does not depend on how it is found, so the primes are found
on bitmasks and handed to :mod:`repro.espresso.exact`'s own
minimum-cover search.  ``tests/test_truthtable.py`` pins it to
:func:`~repro.espresso.exact_minimize`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from ..cubes import Space
from ..obs import resolve_tracer
from ..runtime import InvalidSpecError
from .exact import _min_cover

__all__ = ["MAX_VARS", "cover_size"]

#: the largest code space a truth table covers: 2**7 bits per function
#: and 4**7 entries in the cube table
MAX_VARS = 7


class _Tables:
    """The lookup tables of one ``nv``, built on first use."""

    def __init__(self, nv: int) -> None:
        size = 1 << nv
        self.space = Space.binary(nv)
        self.full = (1 << size) - 1
        #: cube index -> minterm mask; part p's field is bits 2p, 2p+1
        self.tt = [self.full]
        for part in range(nv):
            shift = nv - 1 - part  # part 0 is the code's MSB
            ones = sum(1 << m for m in range(size) if m >> shift & 1)
            zeros = self.full & ~ones
            self.tt = [
                t & field
                for field in (0, zeros, ones, self.full)
                for t in self.tt
            ]
        #: every non-void cube
        self.cubes = [c for c, t in enumerate(self.tt) if t]

    def blocked(self, off: int):
        """``blocked(cube)``: the raise bits of ``cube`` whose grown cube
        meets the minterm mask ``off``."""
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


def cover_size(nv: int, onset: Iterable[int], dc: int, *, tracer=None) -> int:
    """Cubes in the minimum cover of one single-output function.

    ``onset`` holds the on-set codes, in any order; ``dc`` is the
    bitmask of don't-care codes.  The result equals
    ``len(exact_minimize(...))``.  ``tracer`` counts the call
    (``truthtable.minimizations``).
    """
    if not 1 <= nv <= MAX_VARS:
        raise InvalidSpecError(
            f"truth tables cover 1..{MAX_VARS} variables, not {nv}"
        )
    resolve_tracer(tracer).count("truthtable.minimizations")
    tables = _tables(nv)
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
