"""The paper's constraint-matrix notation (Section 3.1).

The classic face-constraint matrix ``L`` has ``L[k][j] = 1`` when
symbol ``j`` belongs to constraint ``k`` and 0 otherwise.  PICOLA's
twist: every 0 entry *is* a seed dichotomy ``(L_k : {s_j})``, and when
code column ``i`` satisfies that dichotomy the 0 is overwritten with a
mark remembering ``i``.  From the marks the algorithm can read off, at
any moment:

* the columns *participating* in ``L_k`` (all members agree there),
  hence ``dim[super(L_k)] <= nv - #participating``;
* the current intruder set ``I_k`` — outsiders whose dichotomy is
  still unsatisfied, i.e. the symbols that may end up inside
  ``super(L_k)``.

We store marks in a per-row dict (0 = unsatisfied, ``j+1`` = satisfied
by 0-based column ``j``); :meth:`ConstraintMatrix.as_paper_matrix`
renders the exact notation of the paper's Example 2 (membership 1,
column ``i`` 1-based marking ``i+1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set

from ..runtime import InvalidSpecError
from .constraints import ConstraintSet, FaceConstraint

__all__ = ["ConstraintRow", "ConstraintMatrix"]


@dataclass
class ConstraintRow:
    """One (possibly guide) constraint with its dichotomy marks."""

    constraint: FaceConstraint
    marks: Dict[str, int]  # outsider -> 0 or (column index + 1)
    agree_columns: Set[int] = field(default_factory=set)
    disagree_columns: Set[int] = field(default_factory=set)
    infeasible: bool = False
    guide_added: bool = False  # a guide row has been spawned for this row

    @property
    def members(self) -> FrozenSet[str]:
        return self.constraint.symbols

    def satisfied(self) -> bool:
        return not self.infeasible and all(
            m > 0 for m in self.marks.values()
        )

    def intruders(self) -> List[str]:
        """Outsiders whose seed dichotomy is still unsatisfied (I_k)."""
        return sorted(s for s, m in self.marks.items() if m == 0)

    def unsatisfied_dichotomies(self) -> int:
        return sum(1 for m in self.marks.values() if m == 0)

    def satisfied_fraction(self) -> float:
        if not self.marks:
            return 1.0
        done = sum(1 for m in self.marks.values() if m > 0)
        return done / len(self.marks)

    def dim_min(self, nv: int) -> int:
        """Lower bound on the final dimension of super(members)."""
        return max(
            len(self.disagree_columns), self.constraint.min_dimension()
        )

    def dim_max(self, nv: int) -> int:
        """Upper bound: every not-yet-generated column could disagree."""
        return nv - len(self.agree_columns)


class ConstraintMatrix:
    """All constraint rows plus the bookkeeping PICOLA needs."""

    def __init__(self, cset: ConstraintSet, nv: Optional[int] = None):
        self.symbols = list(cset.symbols)
        self.nv = nv if nv is not None else cset.min_code_length()
        self.columns_generated = 0
        self.rows: List[ConstraintRow] = []
        for c in cset.nontrivial():
            self.add_constraint(c)

    # ------------------------------------------------------------------
    def add_constraint(self, constraint: FaceConstraint) -> ConstraintRow:
        marks = {
            s: 0 for s in self.symbols if s not in constraint.symbols
        }
        row = ConstraintRow(constraint, marks)
        self.rows.append(row)
        return row

    def active_rows(self) -> List[ConstraintRow]:
        """Rows still steering the encoding (not marked infeasible)."""
        return [r for r in self.rows if not r.infeasible]

    def original_rows(self) -> List[ConstraintRow]:
        return [r for r in self.rows if not r.constraint.is_guide()]

    # ------------------------------------------------------------------
    def record_column(self, column: Mapping[str, int]) -> None:
        """Update all marks after generating one code column."""
        j = self.columns_generated
        if j >= self.nv:
            raise InvalidSpecError("all code columns already generated")
        for row in self.rows:
            values = {column[s] for s in row.members}
            if len(values) > 1:
                row.disagree_columns.add(j)
                continue
            row.agree_columns.add(j)
            b = next(iter(values))
            for s, mark in row.marks.items():
                if mark == 0 and column[s] != b:
                    row.marks[s] = j + 1
        self.columns_generated += 1

    # ------------------------------------------------------------------
    def as_paper_matrix(self) -> List[List[int]]:
        """Rows rendered with the paper's notation (Example 2).

        1 = membership; 0 = unsatisfied dichotomy; ``i + 1`` =
        dichotomy satisfied by 1-based column ``i``.
        """
        out: List[List[int]] = []
        for row in self.rows:
            rendered = []
            for s in self.symbols:
                if s in row.members:
                    rendered.append(1)
                else:
                    mark = row.marks[s]
                    rendered.append(mark + 1 if mark else 0)
            out.append(rendered)
        return out

    def clone(self) -> "ConstraintMatrix":
        """Deep copy of the mutable bookkeeping (constraints shared)."""
        twin = ConstraintMatrix.__new__(ConstraintMatrix)
        twin.symbols = self.symbols
        twin.nv = self.nv
        twin.columns_generated = self.columns_generated
        twin.rows = []
        for row in self.rows:
            copy = ConstraintRow(
                constraint=row.constraint,
                marks=dict(row.marks),
                agree_columns=set(row.agree_columns),
                disagree_columns=set(row.disagree_columns),
                infeasible=row.infeasible,
                guide_added=row.guide_added,
            )
            twin.rows.append(copy)
        return twin

    def __repr__(self) -> str:
        return (
            f"ConstraintMatrix({len(self.rows)} rows, nv={self.nv}, "
            f"columns={self.columns_generated})"
        )
