"""Cover complementation via the unate recursive paradigm.

``complement(space, cover)`` returns a cover of the set of minterms NOT
covered by ``cover``.  The recursion is the classic one:

    ~f  =  OR over values v of the splitting part:  (x = v) & ~(f | x=v)

with base cases for the empty cover (universe), a universe row (empty)
and a single cube (De Morgan).  Results are absorbed (single-cube
containment) on the way up to keep intermediate covers small.

The recursion runs entirely on packed covers
(:mod:`repro.cubes.bulk`): branch cofactors, the per-value selector
AND, absorption and the part merge are all single bulk-kernel calls.
Conversion to/from the legacy int-list form happens only at the public
boundary.  ``absorb`` (re-exported from :mod:`repro.cubes.cube`) keeps
its historical list-of-ints signature.
"""

from __future__ import annotations

from typing import List, Sequence

from .bulk import active_kernel
from .cube import absorb, cube_complement
from .space import Space

__all__ = ["complement", "absorb"]

#: lint marker: this module is a bulk-kernel hot path (RPA008)
__bulk_kernel__ = True

#: full absorption is quadratic; above this many intermediate cubes we
#: keep only the cheap merge (redundant cubes are harmless to callers,
#: they just cost a little extra work downstream)
_ABSORB_LIMIT = 256


def complement(space: Space, cover: Sequence[int]) -> List[int]:
    """Cover of the complement of ``cover``."""
    kernel = active_kernel()
    return kernel.unpack(
        space, complement_packed(space, kernel, kernel.pack(space, cover))
    )


def complement_packed(space: Space, kernel, packed):
    """Complement of an already-packed cover, staying packed (internal
    seam shared with the espresso REDUCE pass)."""
    universe = space.universe
    n = kernel.length(packed)
    if not n:
        return kernel.single(space, universe)
    _, has_universe = kernel.union_info(space, packed)
    if has_universe:
        return kernel.empty(space)
    if n == 1:
        return kernel.pack(
            space, cube_complement(space, kernel.row(space, packed, 0))
        )

    part = kernel.binate_part(space, packed)
    mask = space.part_masks[part]
    offset = space.offsets[part]
    result = kernel.empty(space)
    for value in range(space.part_sizes[part]):
        branch = kernel.cofactor_value(space, packed, part, value)
        selector = (universe & ~mask) | (1 << (offset + value))
        pieces = kernel.and_rows(
            space, complement_packed(space, kernel, branch), selector
        )
        result = kernel.concat(space, result, pieces)
    if kernel.length(result) <= _ABSORB_LIMIT:
        result = kernel.absorb(space, result)
    return kernel.merge_part(space, result, part)
