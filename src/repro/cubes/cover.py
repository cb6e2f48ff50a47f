"""A convenience wrapper bundling a list of cubes with their space.

Hot paths inside the minimizer work on bare ``List[int]``; :class:`Cover`
is the friendly public face used by examples, tests and the higher-level
encoding code.  Set-level operations (intersection, union, absorption,
minterm counting) route through the packed cube kernel
(:mod:`repro.cubes.bulk`).

Comparison caching: ``__eq__``/``__hash__`` compare a *canonical*
sorted tuple that is computed lazily and cached, and ``__contains__``
uses a lazily-built membership set.  The cube list handed out by
:attr:`cubes` is a :class:`_CubeList` whose mutating methods notify
the owning cover, so every mutation path — :meth:`add`, assigning
:attr:`cubes`, and the historical in-place styles
(``cover.cubes.append(...)``, ``cover.cubes.sort()``,
``cover.cubes[0] = ...``) — invalidates both caches exactly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

from ..runtime import InvalidSpecError
from . import cube as _cube
from .bulk import active_kernel
from .complement import complement
from .cube import absorb
from .space import Space
from .tautology import cover_contains_cube, tautology

__all__ = ["Cover"]


class _CubeList(list):
    """A ``list`` that invalidates its owning :class:`Cover`'s caches.

    Handing callers the real, mutable cube list is part of the
    historical API, so instead of returning a defensive copy every
    mutating ``list`` method notifies the owner — same-length edits
    (``cover.cubes[0] = x``, ``sort()``, a ``pop()`` followed by an
    ``append()``) invalidate the caches just like ``append()`` does.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner: "Cover", iterable: Iterable[int] = ()) -> None:
        super().__init__(iterable)
        self._owner = owner


def _mutator(name: str):
    method = getattr(list, name)

    def call(self, *args, **kwargs):
        # _owner may be unset mid-unpickle, when items are appended
        # before the slot state is restored
        owner = getattr(self, "_owner", None)
        if owner is not None:
            owner._invalidate()
        return method(self, *args, **kwargs)

    call.__name__ = name
    call.__qualname__ = f"_CubeList.{name}"
    return call


#: every ``list`` method that mutates in place; each is wrapped to
#: invalidate the owning cover's caches first
_MUTATORS = (
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "clear",
    "sort",
    "reverse",
    "__setitem__",
    "__delitem__",
    "__iadd__",
    "__imul__",
)
for _name in _MUTATORS:
    setattr(_CubeList, _name, _mutator(_name))
del _name


class Cover:
    """An ordered collection of cubes over a :class:`Space`."""

    __slots__ = ("space", "_cubes", "_canon", "_members")

    def __init__(self, space: Space, cubes: Optional[Iterable[int]] = None):
        self.space = space
        self._cubes: _CubeList = _CubeList(self, cubes or ())
        self._canon: Optional[Tuple[int, ...]] = None
        self._members: Optional[frozenset] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_strings(cls, space: Space, rows: Iterable[str]) -> "Cover":
        return cls(space, [space.parse_cube(row) for row in rows])

    @classmethod
    def universe(cls, space: Space) -> "Cover":
        return cls(space, [space.universe])

    @classmethod
    def empty(cls, space: Space) -> "Cover":
        return cls(space, [])

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    @property
    def cubes(self) -> "_CubeList":
        return self._cubes

    @cubes.setter
    def cubes(self, value: Iterable[int]) -> None:
        self._cubes = _CubeList(self, value)
        self._invalidate()

    def _invalidate(self) -> None:
        self._canon = None
        self._members = None

    def _canonical(self) -> Tuple[int, ...]:
        """Sorted cube tuple, cached until the cube list mutates."""
        canon = self._canon
        if canon is None:
            canon = self._canon = tuple(sorted(self._cubes))
        return canon

    def __len__(self) -> int:
        return len(self._cubes)

    def __iter__(self) -> Iterator[int]:
        return iter(self._cubes)

    def __contains__(self, cube: int) -> bool:
        members = self._members
        if members is None:
            members = self._members = frozenset(self._cubes)
        return cube in members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cover):
            return NotImplemented
        return (
            self.space == other.space
            and self._canonical() == other._canonical()
        )

    def __hash__(self) -> int:  # pragma: no cover - rarely hashed
        return hash((self.space, self._canonical()))

    def add(self, cube: int) -> None:
        self._cubes.append(cube)  # _CubeList.append invalidates

    def copy(self) -> "Cover":
        return Cover(self.space, self._cubes)

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def is_tautology(self) -> bool:
        return tautology(self.space, self._cubes)

    def contains_cube(self, cube: int) -> bool:
        return cover_contains_cube(self.space, self._cubes, cube)

    def contains_cover(self, other: "Cover") -> bool:
        self._check_space(other)
        return all(self.contains_cube(c) for c in other._cubes)

    def equivalent(self, other: "Cover") -> bool:
        self._check_space(other)
        if self._canonical() == other._canonical():
            return True  # syntactically identical: skip the semantics
        return self.contains_cover(other) and other.contains_cover(self)

    def covers_minterm(self, minterm: int) -> bool:
        return any(_cube.contains(c, minterm) for c in self._cubes)

    def complemented(self) -> "Cover":
        return Cover(self.space, complement(self.space, self._cubes))

    def absorbed(self) -> "Cover":
        return Cover(self.space, absorb(list(self._cubes)))

    def intersected(self, other: "Cover") -> "Cover":
        self._check_space(other)
        kernel = active_kernel()
        meets = kernel.cross_intersect(
            self.space,
            kernel.pack(self.space, self._cubes),
            kernel.pack(self.space, other._cubes),
        )
        return Cover(
            self.space,
            kernel.unpack(self.space, kernel.absorb(self.space, meets)),
        )

    def union(self, other: "Cover") -> "Cover":
        self._check_space(other)
        kernel = active_kernel()
        merged = kernel.absorb(
            self.space,
            kernel.pack(self.space, self._cubes + other._cubes),
        )
        return Cover(self.space, kernel.unpack(self.space, merged))

    def difference(self, other: "Cover") -> "Cover":
        """Set difference via intersection with the complement."""
        self._check_space(other)
        return self.intersected(other.complemented())

    def _check_space(self, other: "Cover") -> None:
        if self.space != other.space:
            raise InvalidSpecError("covers live in different spaces")

    # operator sugar
    def __or__(self, other: "Cover") -> "Cover":
        return self.union(other)

    def __and__(self, other: "Cover") -> "Cover":
        return self.intersected(other)

    def __sub__(self, other: "Cover") -> "Cover":
        return self.difference(other)

    def __invert__(self) -> "Cover":
        return self.complemented()

    def supercube(self) -> int:
        return _cube.supercube(self._cubes)

    def minterm_count(self) -> int:
        """Number of distinct minterms covered (exact, via disjoint sharp)."""
        kernel = active_kernel()
        return kernel.minterm_count(
            self.space, kernel.pack(self.space, self._cubes)
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        rows = ", ".join(self.space.format_cube(c) for c in self._cubes[:6])
        extra = (
            "" if len(self._cubes) <= 6 else f", ... {len(self._cubes)} total"
        )
        return f"Cover([{rows}{extra}])"
