"""IRREDUNDANT: drop cubes covered by the rest of the cover.

A cube is *relatively essential* when removing it uncovers part of the
on-set; everything else is redundant relative to the current cover and
is removed greedily (largest cubes are kept preferentially, mirroring
ESPRESSO's minimal irredundant-cover heuristic).

A cube is covered when its cofactor of the rest of the working cover
(which shrinks as redundant cubes are dropped) is a tautology, and a
void cube always is.  The pass holds the cover and the don't-cares
column-wise (:func:`repro.cubes.bulk.columns`) and the rows not yet
dropped as one int, and :func:`repro.cubes.bulk.cofactor_rows` finds
the rows of a cube's cofactor from the columns of its literals.
Every cofactor and cover is list-equal to the row-wise pass this
replaced (a fresh list of the rest per cube, cofactored by a scan of
every row), which ``tests/test_espresso_cofactor_oracle.py`` keeps as
its oracle.
"""

from __future__ import annotations

from typing import List, Sequence

from ..cubes import Space, bulk, tautology
from ..obs import resolve_tracer

__all__ = ["irredundant"]


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
    rows = [onset[i] for i in order]
    rows += dcset
    cols = bulk.columns(space, rows)
    # the rows not dropped yet
    alive = (1 << len(rows)) - 1
    keep = []
    for i, cube in enumerate(rows[: len(onset)]):
        row = 1 << i
        if space.void_tops(cube) or tautology(
            space, bulk.cofactor_rows(space, rows, cols, alive ^ row, cube)
        ):
            alive ^= row
        else:
            keep.append(cube)
    return keep
