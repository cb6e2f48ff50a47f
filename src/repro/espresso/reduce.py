"""REDUCE: shrink each cube to the smallest cube doing its unique work.

The classic SCCC computation: the reduction of cube ``c`` against the
rest of the cover ``G`` is

    c' = c  AND  supercube( complement( (G cofactor c) ) )

i.e. the smallest cube containing the part of ``c`` that no other cube
(nor the don't-care set) covers.  Reduced cubes give the following
EXPAND pass room to move to a *different* prime, which is how the
espresso loop escapes local minima.

The pass stays on packed covers throughout
(:mod:`repro.cubes.bulk`): the cofactor-against-pivot, the recursive
complement and the supercube fold are each one kernel call, and the
working cover is updated row-wise between reductions.
"""

from __future__ import annotations

from typing import List, Sequence

from ..cubes import Space
from ..cubes.bulk import active_kernel
from ..cubes.complement import complement_packed
from ..obs import resolve_tracer

__all__ = ["reduce_cover", "reduce_cube"]

#: lint marker: this module is a bulk-kernel hot path (RPA008)
__bulk_kernel__ = True


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
    kernel = active_kernel()
    return _reduce_cube_packed(
        space, kernel, cube, kernel.pack(space, rest)
    )


def _reduce_cube_packed(space: Space, kernel, cube: int, rest) -> int:
    cofactored = kernel.cofactor_cube(space, rest, cube)
    comp = complement_packed(space, kernel, cofactored)
    if not kernel.length(comp):
        return 0
    return cube & kernel.or_fold(space, comp)


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
    kernel = active_kernel()
    cubes = kernel.pack(space, onset)
    dc = kernel.pack(space, dcset)
    weights = kernel.popcounts(space, cubes)
    order = sorted(
        range(len(onset)), key=weights.__getitem__, reverse=True
    )
    for idx in order:
        rest = kernel.concat(
            space, kernel.delete_row(space, cubes, idx), dc
        )
        reduced = _reduce_cube_packed(
            space, kernel, kernel.row(space, cubes, idx), rest
        )
        if reduced:
            cubes = kernel.with_row(space, cubes, idx, reduced)
    return kernel.unpack(space, cubes)
