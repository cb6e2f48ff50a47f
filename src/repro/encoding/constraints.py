"""Face (group) constraints and seed dichotomies.

Definitions follow Section 2 of the paper:

* A *group constraint* on symbols ``S`` is a subset ``L`` of ``S`` whose
  codes must be coverable by a cube that intersects no code of a symbol
  outside ``L``.
* A *seed dichotomy* of ``L`` is a two-block partition ``(L : {s})``
  for one outside symbol ``s``; ``L`` is satisfied iff every one of its
  seed dichotomies is satisfied (some encoding column gives all of
  ``L`` one value and ``s`` the other).
* A *guide constraint* (Section 3.2) is the group constraint formed by
  the intruder set of an infeasible constraint; satisfying it makes the
  infeasible constraint cheap to implement (Theorem I).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..runtime import InvalidSpecError

__all__ = ["FaceConstraint", "SeedDichotomy", "ConstraintSet"]


@dataclass(frozen=True)
class FaceConstraint:
    """A group constraint: the symbols that must share a face."""

    symbols: FrozenSet[str]
    kind: str = "original"  # "original" | "guide"
    parent: Optional[FrozenSet[str]] = None  # for guides: the constraint
    weight: float = 1.0

    def __init__(
        self,
        symbols: Iterable[str],
        kind: str = "original",
        parent: Optional[Iterable[str]] = None,
        weight: float = 1.0,
    ) -> None:
        object.__setattr__(self, "symbols", frozenset(symbols))
        if kind not in ("original", "guide"):
            raise InvalidSpecError(f"bad constraint kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(
            self, "parent", frozenset(parent) if parent is not None else None
        )
        object.__setattr__(self, "weight", weight)
        if not self.symbols:
            raise InvalidSpecError("a face constraint needs at least one symbol")

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.symbols

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.symbols))

    def is_guide(self) -> bool:
        return self.kind == "guide"

    def min_dimension(self) -> int:
        """ceil(log2 |L|): smallest cube dimension that can hold L."""
        return (len(self.symbols) - 1).bit_length()

    def seed_dichotomies(
        self, universe: Sequence[str]
    ) -> List["SeedDichotomy"]:
        """All seed dichotomies of this constraint w.r.t. ``universe``."""
        outside = [s for s in universe if s not in self.symbols]
        return [SeedDichotomy(self.symbols, s) for s in outside]

    def __repr__(self) -> str:
        tag = "guide:" if self.is_guide() else ""
        return f"FaceConstraint({tag}{{{', '.join(sorted(self.symbols))}}})"


@dataclass(frozen=True)
class SeedDichotomy:
    """(B1 : b2): B1 must be distinguished from b2 by some column."""

    block: FrozenSet[str]
    outsider: str

    def __init__(self, block: Iterable[str], outsider: str) -> None:
        object.__setattr__(self, "block", frozenset(block))
        object.__setattr__(self, "outsider", outsider)
        if outsider in self.block:
            raise InvalidSpecError("outsider cannot be inside the block")

    def satisfied_by_column(self, column: Dict[str, int]) -> bool:
        """Does a single code column (symbol -> 0/1) satisfy this?"""
        values = {column[s] for s in self.block}
        if len(values) != 1:
            return False
        return column[self.outsider] != next(iter(values))


class ConstraintSet:
    """Symbols plus the face constraints on them.

    The symbol order is significant: it defines row order of the code
    matrix and of the paper's constraint matrix.
    """

    def __init__(
        self,
        symbols: Sequence[str],
        constraints: Iterable[FaceConstraint] = (),
    ) -> None:
        if len(set(symbols)) != len(symbols):
            raise InvalidSpecError("duplicate symbols")
        self.symbols: Tuple[str, ...] = tuple(symbols)
        self.constraints: List[FaceConstraint] = []
        for c in constraints:
            self.add(c)

    # ------------------------------------------------------------------
    def add(self, constraint: FaceConstraint) -> None:
        unknown = constraint.symbols - set(self.symbols)
        if unknown:
            raise InvalidSpecError(f"constraint mentions unknown symbols {unknown}")
        self.constraints.append(constraint)

    @property
    def n_symbols(self) -> int:
        return len(self.symbols)

    def min_code_length(self) -> int:
        n = len(self.symbols)
        return max(1, (n - 1).bit_length())

    def nontrivial(self) -> List[FaceConstraint]:
        """Constraints that actually constrain: 2 <= |L| < n."""
        n = len(self.symbols)
        return [c for c in self.constraints if 2 <= len(c) < n]

    def as_matrix(self) -> List[List[int]]:
        """The classic 0/1 constraint matrix (rows = constraints)."""
        return [
            [1 if s in c else 0 for s in self.symbols]
            for c in self.constraints
        ]

    def all_seed_dichotomies(self) -> List[SeedDichotomy]:
        result: List[SeedDichotomy] = []
        for c in self.nontrivial():
            result.extend(c.seed_dichotomies(self.symbols))
        return result

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self) -> Iterator[FaceConstraint]:
        return iter(self.constraints)

    def __repr__(self) -> str:
        return (
            f"ConstraintSet({len(self.symbols)} symbols, "
            f"{len(self.constraints)} constraints)"
        )
