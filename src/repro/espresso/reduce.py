"""REDUCE: shrink each cube to the smallest cube doing its unique work.

The classic SCCC computation: the reduction of cube ``c`` against the
rest of the cover ``G`` is

    c' = c  AND  supercube( complement( (G cofactor c) ) )

i.e. the smallest cube containing the part of ``c`` that no other cube
(nor the don't-care set) covers.  Reduced cubes give the following
EXPAND pass room to move to a *different* prime, which is how the
espresso loop escapes local minima.

The cofactor-against-pivot and the recursive complement are cube-list
calls (:mod:`repro.cubes.bulk`), and the working cover is updated
row-wise between reductions.
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
    comp = complement(space, bulk.cofactor_cube(space, rest, cube))
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
    cubes = list(onset)
    dc = list(dcset)
    weights = bulk.popcounts(cubes)
    order = sorted(
        range(len(onset)), key=weights.__getitem__, reverse=True
    )
    for idx in order:
        rest = cubes[:idx] + cubes[idx + 1 :] + dc
        reduced = reduce_cube(space, cubes[idx], rest)
        if reduced:
            cubes[idx] = reduced
    return cubes
