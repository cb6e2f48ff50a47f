"""IRREDUNDANT: drop cubes covered by the rest of the cover.

A cube is *relatively essential* when removing it uncovers part of the
on-set; everything else is redundant relative to the current cover and
is removed greedily (largest cubes are kept preferentially, mirroring
ESPRESSO's minimal irredundant-cover heuristic).

Containment checks run on packed covers via the tautology
seam (:func:`repro.cubes.tautology.cover_contains_cube_packed`); the
working cover is kept packed and shrunk row-wise as redundant cubes
are dropped.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..cubes import Space
from ..cubes.bulk import active_kernel
from ..cubes.tautology import cover_contains_cube_packed
from ..obs import resolve_tracer

__all__ = ["irredundant", "relatively_essential"]

#: lint marker: this module is a bulk-kernel hot path (RPA008)
__bulk_kernel__ = True


def relatively_essential(
    space: Space,
    onset: Sequence[int],
    dcset: Sequence[int] = (),
) -> Tuple[List[int], List[int]]:
    """Split the cover into (relatively essential, redundant) cubes."""
    kernel = active_kernel()
    packed = kernel.pack(space, onset)
    dc = kernel.pack(space, dcset)
    essential: List[int] = []
    redundant: List[int] = []
    for idx in range(kernel.length(packed)):
        rest = kernel.concat(
            space, kernel.delete_row(space, packed, idx), dc
        )
        cube = kernel.row(space, packed, idx)
        if cover_contains_cube_packed(space, kernel, rest, cube):
            redundant.append(cube)
        else:
            essential.append(cube)
    return essential, redundant


def irredundant(
    space: Space,
    onset: List[int],
    dcset: Sequence[int] = (),
    tracer=None,
) -> List[int]:
    """A subset of ``onset`` with the same coverage and no redundant cube.

    Smallest redundant cubes are dropped first so large primes survive.
    ``tracer`` counts the cubes visited (``espresso.irredundant.cubes``).
    """
    resolve_tracer(tracer).count(
        "espresso.irredundant.cubes", len(onset)
    )
    kernel = active_kernel()
    packed = kernel.pack(space, onset)
    weights = kernel.popcounts(space, packed)
    order = sorted(range(len(onset)), key=weights.__getitem__)
    keep = kernel.gather(space, packed, order)
    dc = kernel.pack(space, dcset)
    i = 0
    while i < kernel.length(keep):
        rest = kernel.concat(
            space, kernel.delete_row(space, keep, i), dc
        )
        cube = kernel.row(space, keep, i)
        if cover_contains_cube_packed(space, kernel, rest, cube):
            keep = kernel.delete_row(space, keep, i)
        else:
            i += 1
    return kernel.unpack(space, keep)
