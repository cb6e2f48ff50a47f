"""Diagnostics: explain a PICOLA run constraint by constraint.

``analyze_result`` turns a :class:`~repro.core.picola.PicolaResult`
into a structured report a user can act on: which constraints were
satisfied and by which columns, which were classified infeasible (and
why — capacity or an nv-compatibility conflict), what their guide
constraints achieved, and the Theorem I cost of every violated
constraint.  ``picola analyze`` renders it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..encoding.codes import Encoding
from ..encoding.constraints import FaceConstraint
from ..encoding.matrix import ConstraintRow
from .classify import capacity_feasible, nv_compatible
from .guides import theorem1_cubes
from .picola import PicolaResult

__all__ = ["ConstraintDiagnosis", "RunAnalysis", "analyze_result"]


@dataclass
class ConstraintDiagnosis:
    constraint: FaceConstraint
    status: str  # "satisfied" | "violated" | "infeasible"
    reason: str
    intruders: Tuple[str, ...]
    participating_columns: Tuple[int, ...]
    theorem1_cubes: Optional[int]
    guide: Optional[FaceConstraint]

    def describe(self) -> str:
        members = ",".join(sorted(self.constraint.symbols))
        lines = [f"{{{members}}}: {self.status} ({self.reason})"]
        if self.intruders:
            lines.append(
                "  intruders: " + ", ".join(self.intruders)
            )
        if self.theorem1_cubes is not None:
            lines.append(
                f"  Theorem I implementation: {self.theorem1_cubes} "
                "cube(s)"
            )
        if self.guide is not None:
            gm = ",".join(sorted(self.guide.symbols))
            lines.append(f"  guide constraint: {{{gm}}}")
        return "\n".join(lines)


@dataclass
class RunAnalysis:
    result: PicolaResult
    diagnoses: List[ConstraintDiagnosis] = field(default_factory=list)

    @property
    def estimated_total_cubes(self) -> int:
        total = 0
        for d in self.diagnoses:
            if d.status == "satisfied":
                total += 1
            elif d.theorem1_cubes is not None:
                total += d.theorem1_cubes
            else:
                total += 1 + len(d.intruders)
        return total

    def render(self) -> str:
        parts = [self.result.summary(), ""]
        parts += [d.describe() for d in self.diagnoses]
        parts.append("")
        parts.append(
            f"estimated implementation: {self.estimated_total_cubes} "
            "product terms (Theorem I bound)"
        )
        return "\n".join(parts)


def _infeasibility_reason(
    row: ConstraintRow, result: PicolaResult
) -> str:
    nv = result.encoding.n_bits
    n = len(result.constraints.symbols)
    if not capacity_feasible(row, nv, n):
        min_dim = row.constraint.min_dimension()
        waste = (1 << max(min_dim, len(row.disagree_columns))) - len(
            row.members
        )
        spare = (1 << nv) - n
        if waste > spare:
            return (
                f"capacity: a dim-{min_dim} face wastes {waste} codes "
                f"but only {spare} are unused"
            )
        return "capacity: no room left to cut the remaining intruders"
    for other in result.matrix.rows:
        if other is row or other.infeasible or not other.satisfied():
            continue
        if not nv_compatible(row, other, nv, n):
            om = ",".join(sorted(other.members))
            return f"nv-incompatible with satisfied {{{om}}}"
    return "classified during encoding"


def analyze_result(result: PicolaResult) -> RunAnalysis:
    """Build the full diagnosis of one PICOLA run."""
    analysis = RunAnalysis(result)
    guides_by_parent = {
        g.parent: g for g in result.guides_added if g.parent
    }
    enc: Encoding = result.encoding
    for row in result.matrix.original_rows():
        members = sorted(row.members)
        intruders = tuple(enc.intruders(row.members))
        cubes = theorem1_cubes(enc, members, list(intruders))
        n_cubes = len(cubes) if cubes is not None else None
        if not intruders:
            diagnosis = ConstraintDiagnosis(
                constraint=row.constraint,
                status="satisfied",
                reason=(
                    "face "
                    + _face_string(enc, members)
                    + " excludes all other symbols"
                ),
                intruders=(),
                participating_columns=tuple(sorted(row.agree_columns)),
                theorem1_cubes=1,
                guide=None,
            )
        else:
            status = "infeasible" if row.infeasible else "violated"
            reason = (
                _infeasibility_reason(row, result)
                if row.infeasible
                else "left unsatisfied by the heuristic"
            )
            diagnosis = ConstraintDiagnosis(
                constraint=row.constraint,
                status=status,
                reason=reason,
                intruders=intruders,
                participating_columns=tuple(sorted(row.agree_columns)),
                theorem1_cubes=n_cubes,
                guide=guides_by_parent.get(row.members),
            )
        analysis.diagnoses.append(diagnosis)
    return analysis


def _face_string(enc: Encoding, members) -> str:
    mask, value = enc.face(members)
    nv = enc.n_bits
    return "".join(
        str((value >> (nv - 1 - b)) & 1)
        if (mask >> (nv - 1 - b)) & 1
        else "-"
        for b in range(nv)
    )
