"""Encoding framework: constraints, code matrices, derivation, scoring."""

from .codes import Encoding, face_of
from .constraints import ConstraintSet, FaceConstraint, SeedDichotomy
from .evaluate import (
    ConstraintScore,
    EvaluationReport,
    constraint_function,
    cubes_for_constraint,
    evaluate_encoding,
    satisfied_dichotomies,
)
from .exact import ExactEncodingResult, ExactSearchBudget, exact_encode
from .lengths import (
    LengthPoint,
    best_length_encoding,
    length_tradeoff,
    minimum_satisfying_length,
)
from .matrix import ConstraintMatrix, ConstraintRow
from .symbolic import (
    constraints_from_cover,
    derive_face_constraints,
    minimize_symbolic_cover,
)

__all__ = [
    "Encoding",
    "face_of",
    "ConstraintSet",
    "FaceConstraint",
    "SeedDichotomy",
    "ConstraintScore",
    "EvaluationReport",
    "constraint_function",
    "cubes_for_constraint",
    "evaluate_encoding",
    "satisfied_dichotomies",
    "ExactEncodingResult",
    "ExactSearchBudget",
    "exact_encode",
    "LengthPoint",
    "best_length_encoding",
    "length_tradeoff",
    "minimum_satisfying_length",
    "ConstraintMatrix",
    "ConstraintRow",
    "constraints_from_cover",
    "derive_face_constraints",
    "minimize_symbolic_cover",
]
