"""REDUCE: shrink each cube to the smallest cube doing its unique work.

The classic SCCC computation: the reduction of cube ``c`` against the
rest of the cover ``G`` is

    c' = c  AND  supercube( complement( (G cofactor c) ) )

i.e. the smallest cube containing the part of ``c`` that no other cube
(nor the don't-care set) covers.  Reduced cubes give the following
EXPAND pass room to move to a *different* prime, which is how the
espresso loop escapes local minima.

The pass holds the cover and the don't-cares column-wise
(:func:`repro.cubes.bulk.columns`):
:func:`repro.cubes.bulk.cofactor_rows` finds the rows of a cube's
cofactor from the columns of its literals, and a reduced cube's
dropped bits are cleared from its columns.  Every cofactor and cover
is list-equal to the row-wise pass this replaced (a fresh list of the
rest per cube, cofactored by a scan of every row), which
``tests/test_espresso_cofactor_oracle.py`` keeps as its oracle.
:func:`reduce_cube` (LASTGASP) takes the rest as a list and scans
it.
"""

from __future__ import annotations

from typing import List, Sequence

from ..cubes import Space, bulk, complement, supercube
from ..obs import resolve_tracer

__all__ = ["reduce_cover", "reduce_cube"]


def reduce_cube(
    space: Space,
    cube: int,
    rest: Sequence[int],
) -> int:
    """Smallest cube covering the minterms of ``cube`` unique to it.

    Returns 0 when ``rest`` covers ``cube`` entirely (caller decides
    what to do; :func:`reduce_cover` keeps such cubes untouched and
    leaves their removal to IRREDUNDANT).
    """
    return _reduction(space, cube, bulk.cofactor_cube(space, rest, cube))


def _reduction(space: Space, cube: int, cofactor: List[int]) -> int:
    """``cube`` AND the supercube of the complement of its
    ``cofactor`` of the rest; 0 when that complement is empty."""
    comp = complement(space, cofactor)
    if not comp:
        return 0
    return cube & supercube(comp)


def reduce_cover(
    space: Space,
    onset: List[int],
    dcset: Sequence[int] = (),
    tracer=None,
) -> List[int]:
    """Reduce every cube in place against the current partial result.

    Cubes are processed largest-first (ESPRESSO's order): reducing the
    big primes first gives the small ones the most freedom afterwards.
    Reduction is *sequential* — each reduction sees the already-reduced
    versions of earlier cubes — which preserves the cover's coverage.
    ``tracer`` counts the cubes visited (``espresso.reduce.cubes``).
    """
    resolve_tracer(tracer).count("espresso.reduce.cubes", len(onset))
    rows = list(onset)
    rows += dcset
    cols = bulk.columns(space, rows)
    all_rows = (1 << len(rows)) - 1
    weights = bulk.popcounts(onset)
    order = sorted(
        range(len(onset)), key=weights.__getitem__, reverse=True
    )
    for idx in order:
        cube = rows[idx]
        row = 1 << idx
        reduced = _reduction(
            space, cube,
            bulk.cofactor_rows(space, rows, cols, all_rows ^ row, cube),
        )
        if reduced:
            rows[idx] = reduced
            # the later cofactors see the reduced row
            dropped = cube & ~reduced
            while dropped:
                low = dropped & -dropped
                cols[low.bit_length() - 1] ^= row
                dropped ^= low
    return rows[: len(onset)]
