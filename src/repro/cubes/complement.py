"""Cover complementation via the unate recursive paradigm.

``complement(space, cover)`` returns a cover of the set of minterms NOT
covered by ``cover``.  The recursion is the classic one:

    ~f  =  OR over values v of the splitting part:  (x = v) & ~(f | x=v)

with base cases for the empty cover (universe), a universe row (empty)
and a single cube (De Morgan).  Results are absorbed (single-cube
containment) on the way up to keep intermediate covers small.

Branch cofactors, the per-value selector AND, absorption and the part
merge are each one cube-list primitive call (:mod:`repro.cubes.bulk`).
``absorb`` (re-exported from :mod:`repro.cubes.cube`) keeps its
historical sort-in-place signature.
"""

from __future__ import annotations

from typing import List, Sequence

from . import bulk
from .cube import absorb, cube_complement
from .space import Space

__all__ = ["complement", "absorb"]

#: full absorption is quadratic; above this many intermediate cubes we
#: keep only the cheap merge (redundant cubes are harmless to callers,
#: they just cost a little extra work downstream)
_ABSORB_LIMIT = 256


def complement(space: Space, cover: Sequence[int]) -> List[int]:
    """Cover of the complement of ``cover``."""
    universe = space.universe
    n = len(cover)
    if not n:
        return [universe]
    _, has_universe = bulk.union_info(space, cover)
    if has_universe:
        return []
    if n == 1:
        return cube_complement(space, cover[0])

    part = bulk.binate_part(space, cover)
    mask = space.part_masks[part]
    offset = space.offsets[part]
    result: List[int] = []
    for value in range(space.part_sizes[part]):
        branch = bulk.cofactor_value(space, cover, part, value)
        selector = (universe & ~mask) | (1 << (offset + value))
        result += bulk.and_rows(complement(space, branch), selector)
    if len(result) <= _ABSORB_LIMIT:
        result = bulk.absorb(result)
    return bulk.merge_part(space, result, part)
