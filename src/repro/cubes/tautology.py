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
cofactors) runs on the packed cube kernel
(:mod:`repro.cubes.bulk`); covers are packed once at the public
boundary and stay packed down the whole recursion.
"""

from __future__ import annotations

from typing import List, Sequence

from .bulk import active_kernel
from .space import Space

__all__ = ["tautology", "cover_contains_cube"]

#: lint marker: this module is a bulk-kernel hot path (RPA008) — no
#: per-cube Python loops over covers, no Cube/Cover wrapper allocation
__bulk_kernel__ = True


def tautology(space: Space, cover: Sequence[int]) -> bool:
    """Does ``cover`` cover every minterm of ``space``?"""
    kernel = active_kernel()
    return tautology_packed(space, kernel, kernel.pack(space, cover))


def tautology_packed(space: Space, kernel, packed) -> bool:
    """Tautology check over an already-packed cover (internal seam for
    the espresso passes, which keep covers packed across calls)."""
    universe = space.universe
    stack: List[object] = [packed]
    while stack:
        cur = stack.pop()
        if not kernel.length(cur):
            return False
        union, has_universe = kernel.union_info(space, cur)
        if has_universe:
            continue
        if union != universe:
            return False  # some column is empty
        if kernel.is_unate(space, cur):
            return False  # unate without a universe row
        part = kernel.binate_part(space, cur)
        for value in range(space.part_sizes[part]):
            stack.append(kernel.cofactor_value(space, cur, part, value))
    return True


def cover_contains_cube(space: Space, cover: Sequence[int], cube: int) -> bool:
    """True when the union of ``cover`` contains every minterm of ``cube``."""
    kernel = active_kernel()
    return cover_contains_cube_packed(
        space, kernel, kernel.pack(space, cover), cube
    )


def cover_contains_cube_packed(space: Space, kernel, packed, cube: int) -> bool:
    """Packed-cover containment: pack once, reuse across many cubes."""
    if not cube:
        return True
    return tautology_packed(
        space, kernel, kernel.cofactor_cube(space, packed, cube)
    )
