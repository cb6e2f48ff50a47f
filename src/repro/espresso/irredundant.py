"""IRREDUNDANT: drop cubes covered by the rest of the cover.

A cube is *relatively essential* when removing it uncovers part of the
on-set; everything else is redundant relative to the current cover and
is removed greedily (largest cubes are kept preferentially, mirroring
ESPRESSO's minimal irredundant-cover heuristic).

Containment checks are tautology checks
(:func:`repro.cubes.tautology.cover_contains_cube`) of each cube
against the rest of the working cover, which shrinks as redundant
cubes are dropped.
"""

from __future__ import annotations

from typing import List, Sequence

from ..cubes import Space, bulk
from ..cubes.tautology import cover_contains_cube
from ..obs import resolve_tracer

__all__ = ["irredundant"]

#: lint marker: this module is a bulk-kernel hot path (RPA008)
__bulk_kernel__ = True


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
    weights = bulk.popcounts(onset)
    order = sorted(range(len(onset)), key=weights.__getitem__)
    keep = [onset[i] for i in order]
    dc = list(dcset)
    i = 0
    while i < len(keep):
        rest = keep[:i] + keep[i + 1 :] + dc
        if cover_contains_cube(space, rest, keep[i]):
            del keep[i]
        else:
            i += 1
    return keep
