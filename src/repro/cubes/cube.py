"""Primitive operations on single cubes.

All functions operate on plain ints relative to a :class:`~repro.cubes.space.Space`.
They are deliberately free functions (not methods on a Cube object) so hot
loops can work on lists of ints without wrapper allocation.
"""

from __future__ import annotations

from typing import Iterable, List

from .space import Space

__all__ = [
    "absorb",
    "is_void",
    "intersect",
    "contains",
    "strictly_contains",
    "supercube",
    "cofactor",
    "distance",
    "consensus",
    "cube_complement",
    "free_part_count",
    "cube_size",
    "active_parts",
    "sharp",
]


def _popcount(x: int) -> int:
    return bin(x).count("1")


def absorb(cover: List[int]) -> List[int]:
    """Remove cubes contained in another cube of the cover (in place).

    Sorting by descending popcount means a cube can only be absorbed by
    an earlier one, giving a single quadratic pass with early exits.
    Containment is pure bitwise subset, so no :class:`Space` is needed;
    :func:`repro.cubes.bulk.absorb` gives the same result without
    sorting the caller's list.
    """
    cover.sort(key=_popcount, reverse=True)
    result: List[int] = []
    for cube in cover:
        for big in result:
            if not cube & ~big:
                break
        else:
            result.append(cube)
    return result


def is_void(space: Space, cube: int) -> bool:
    """True when the cube denotes the empty set (some part field is 0)."""
    return bool(space.void_tops(cube))


def intersect(space: Space, a: int, b: int) -> int:
    """Intersection, or 0 when void.

    (0 is itself a void cube under :func:`is_void`, so callers may also
    just AND and test.)
    """
    c = a & b
    return 0 if space.void_tops(c) else c


def contains(a: int, b: int) -> bool:
    """True when cube ``a`` contains cube ``b`` (b's set is a subset)."""
    return not b & ~a


def strictly_contains(a: int, b: int) -> bool:
    return a != b and not b & ~a


def supercube(cubes: Iterable[int]) -> int:
    """Smallest cube containing every cube in ``cubes`` (0 if empty)."""
    result = 0
    for cube in cubes:
        result |= cube
    return result


def cofactor(space: Space, cube: int, p: int) -> int:
    """The ESPRESSO cofactor of ``cube`` with respect to cube ``p``.

    Only meaningful when the two cubes intersect; callers filter first.
    """
    return cube | (space.universe & ~p)


def distance(space: Space, a: int, b: int) -> int:
    """Number of parts in which ``a`` and ``b`` have empty intersection."""
    return _popcount(space.void_tops(a & b))


def consensus(space: Space, a: int, b: int) -> int:
    """Consensus of two cubes, or 0 when they are distance >= 2 apart.

    At distance 0 the consensus is the intersection; at distance 1 it is
    the cube agreeing with ``a & b`` everywhere except the conflicting
    part, which is raised to ``a | b``.
    """
    c = a & b
    void = space.void_tops(c)
    if not void:
        return c
    if void & (void - 1):
        return 0
    mask = next(m for m in space.part_masks if m & void)
    return (c & ~mask) | ((a | b) & mask)


def cube_complement(space: Space, cube: int) -> List[int]:
    """Complement of a single cube as a list of cubes (De Morgan)."""
    result: List[int] = []
    universe = space.universe
    for mask in space.part_masks:
        missing = mask & ~cube
        if missing:
            result.append((universe & ~mask) | missing)
    return result


def free_part_count(space: Space, cube: int) -> int:
    """Number of parts whose field is completely free (all values)."""
    count = 0
    for mask in space.part_masks:
        if cube & mask == mask:
            count += 1
    return count


def active_parts(space: Space, cube: int) -> List[int]:
    """Parts in which the cube actually asserts something (not full)."""
    return [
        part
        for part, mask in enumerate(space.part_masks)
        if cube & mask != mask
    ]


def cube_size(space: Space, cube: int) -> int:
    """Number of minterms contained in the cube."""
    size = 1
    for mask in space.part_masks:
        size *= bin(cube & mask).count("1")
    return size


def sharp(space: Space, a: int, b: int) -> List[int]:
    """The sharp product ``a # b``: cubes covering ``a`` minus ``b``.

    Returns the disjoint-sharp decomposition (cubes are pairwise
    disjoint).
    """
    if not intersect(space, a, b):
        return [a]
    result: List[int] = []
    rest = a
    for part, mask in enumerate(space.part_masks):
        outside = rest & mask & ~b
        if outside:
            piece = (rest & ~mask) | outside
            result.append(piece)
            rest = (rest & ~mask) | (rest & mask & b)
    return result
