"""Tautology checking via the unate recursive paradigm.

``tautology(space, cover)`` decides whether a cover (list of int cubes)
covers every minterm of the space.  The recursion cofactors against each
value of the most *binate* part; cheap necessary/sufficient tests prune
the vast majority of calls:

* a universe cube in the cover  -> tautology,
* an empty cover                -> not a tautology,
* a part value admitted by no cube -> not a tautology (that column of
  the positional matrix is all zero, so minterms taking that value are
  uncovered),
* a unate cover                 -> tautology iff it contains the
  universe cube (Unate Covering theorem).

The same routine powers cover containment: ``F`` contains a cube ``c``
iff the cofactor of ``F`` against ``c`` is a tautology.

The per-node work (union folds, unateness, binate selection, value
cofactors) is one cube-list primitive call each
(:mod:`repro.cubes.bulk`).
"""

from __future__ import annotations

from typing import List, Sequence

from . import bulk
from .space import Space

__all__ = ["tautology", "cover_contains_cube"]

#: lint marker: this module is a bulk-kernel hot path (RPA008) — no
#: per-cube Python loops over covers, no Cube/Cover wrapper allocation
__bulk_kernel__ = True


def tautology(space: Space, cover: Sequence[int]) -> bool:
    """Does ``cover`` cover every minterm of ``space``?"""
    universe = space.universe
    stack: List[Sequence[int]] = [cover]
    while stack:
        cur = stack.pop()
        if not cur:
            return False
        union, has_universe = bulk.union_info(space, cur)
        if has_universe:
            continue
        if union != universe:
            return False  # some column is empty
        if bulk.is_unate(space, cur):
            return False  # unate without a universe row
        part = bulk.binate_part(space, cur)
        for value in range(space.part_sizes[part]):
            stack.append(bulk.cofactor_value(space, cur, part, value))
    return True


def cover_contains_cube(space: Space, cover: Sequence[int], cube: int) -> bool:
    """True when the union of ``cover`` contains every minterm of ``cube``."""
    if not cube:
        return True
    return tautology(space, bulk.cofactor_cube(space, cover, cube))
