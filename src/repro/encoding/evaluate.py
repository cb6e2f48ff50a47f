"""Scoring encodings: product terms needed to implement the constraints.

This is the paper's quality measure for Table I.  Each face constraint
``L`` induces a single-output Boolean function over the code space
(footnote 2 of the paper):

* on-set: the codes of the symbols in ``L``,
* off-set: the codes of the symbols not in ``L``,
* don't-care set: the unused codes.

The number of cubes in a minimized sum-of-products for that function —
one per constraint, summed — measures how economically the encoding
implements the complete constraint set: a satisfied constraint costs
exactly one cube, an infeasible one costs however many its intruders
force (Theorem I gives the constructive bound).

Every encoder in this repository is scored by this same evaluator.
For code spaces of up to
:data:`~repro.espresso.truthtable.MAX_VARS` bits (every Table I row)
it counts the *minimum* cover, so the score of a constraint depends
only on its function, never on how the codes are labelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..cubes import Space
from ..espresso import espresso
from ..espresso.truthtable import MAX_VARS, cover_size
from ..runtime import InvalidSpecError
from .codes import Encoding
from .constraints import ConstraintSet, FaceConstraint

__all__ = [
    "constraint_function",
    "cubes_for_codes",
    "cubes_for_constraint",
    "evaluate_encoding",
    "EvaluationReport",
    "ConstraintScore",
]


def _constraint_codes(
    encoding: Encoding, constraint: FaceConstraint
) -> Tuple[List[int], int]:
    """(member codes in sorted-symbol order, unused-code bitmask)."""
    unused = 0
    for code in encoding.unused_codes():
        unused |= 1 << code
    onset = [encoding.code_of(s) for s in sorted(constraint.symbols)]
    return onset, unused


def _code_function(
    nv: int, onset: Sequence[int], unused: int
) -> Tuple[Space, List[int], List[int]]:
    """(space, onset, dcset) of a function given by its codes."""
    space = Space.binary(nv)

    def minterm(code: int) -> int:
        return space.minterm([(code >> (nv - 1 - b)) & 1 for b in range(nv)])

    dcset = [minterm(code) for code in range(1 << nv) if unused >> code & 1]
    return space, [minterm(code) for code in onset], dcset


def constraint_function(
    encoding: Encoding, constraint: FaceConstraint
) -> Tuple[Space, List[int], List[int]]:
    """(space, onset, dcset) of the constraint's Boolean function."""
    return _code_function(
        encoding.n_bits, *_constraint_codes(encoding, constraint)
    )


def cubes_for_codes(
    nv: int, onset: Sequence[int], unused: int, *, tracer=None
) -> int:
    """Minimized product-term count of one constraint function.

    ``onset`` holds the member codes in sorted-symbol order and
    ``unused`` is the bitmask of unused codes (the don't-cares).  Code
    spaces of up to :data:`~repro.espresso.truthtable.MAX_VARS` bits
    get the minimum cover, counted on truth tables; larger ones get
    espresso's, which may depend on the onset's order.
    """
    if nv <= MAX_VARS:
        return cover_size(nv, onset, unused, tracer=tracer)
    space, on, dc = _code_function(nv, onset, unused)
    return len(espresso(space, on, dc, use_lastgasp=False, tracer=tracer))


def cubes_for_constraint(
    encoding: Encoding, constraint: FaceConstraint
) -> int:
    """Minimized product-term count for one constraint
    (:func:`cubes_for_codes` of its :func:`constraint_function`)."""
    return cubes_for_codes(
        encoding.n_bits, *_constraint_codes(encoding, constraint)
    )


@dataclass
class ConstraintScore:
    constraint: FaceConstraint
    cubes: int
    satisfied: bool
    intruders: Tuple[str, ...]


@dataclass
class EvaluationReport:
    """Everything Table I needs about one encoding."""

    encoding: Encoding
    scores: List[ConstraintScore] = field(default_factory=list)

    @property
    def total_cubes(self) -> int:
        return sum(s.cubes for s in self.scores)

    @property
    def n_constraints(self) -> int:
        return len(self.scores)

    @property
    def n_satisfied(self) -> int:
        return sum(1 for s in self.scores if s.satisfied)

    def summary(self) -> str:
        return (
            f"{self.n_satisfied}/{self.n_constraints} constraints "
            f"satisfied, {self.total_cubes} cubes total"
        )


def evaluate_encoding(
    encoding: Encoding, constraints: ConstraintSet
) -> EvaluationReport:
    """Score an encoding against the *original* constraint set."""
    if not encoding.is_injective():
        raise InvalidSpecError("encoding is not injective")
    report = EvaluationReport(encoding)
    for constraint in constraints.nontrivial():
        intruders = tuple(encoding.intruders(constraint.symbols))
        cubes = cubes_for_constraint(encoding, constraint)
        report.scores.append(
            ConstraintScore(
                constraint=constraint,
                cubes=cubes,
                satisfied=not intruders,
                intruders=intruders,
            )
        )
    return report


def satisfied_dichotomies(
    encoding: Encoding, constraints: ConstraintSet
) -> Tuple[int, int]:
    """(satisfied, total) seed dichotomies of the nontrivial constraints."""
    total = 0
    done = 0
    columns = encoding.columns()
    for d in constraints.all_seed_dichotomies():
        total += 1
        if any(d.satisfied_by_column(col) for col in columns):
            done += 1
    return done, total
