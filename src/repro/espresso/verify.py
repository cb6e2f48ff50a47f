"""Cover verification: the minimizer's safety net.

ESPRESSO ships a ``-Dverify`` mode; this is ours.  All checks are
exact (tautology-based), work on any multi-valued space, and are used
by the test-suite and by callers that want hard guarantees after a
minimization run.  They cofactor by a scan of every row
(:func:`repro.cubes.cover_contains_cube`) on purpose, so they stay an
independent check of IRREDUNDANT and REDUCE's column-wise cofactors.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..cubes import (
    Space,
    complement,
    cover_contains_cube,
    intersect,
    tautology,
)
from .pla import Pla

__all__ = [
    "covers_equal",
    "cover_in_range",
    "verify_minimization",
    "VerificationError",
]


class VerificationError(AssertionError):
    """A minimized cover is not equivalent to its specification."""


def covers_equal(
    space: Space, f: Sequence[int], g: Sequence[int]
) -> bool:
    """Set equality of two covers (mutual containment)."""
    return all(cover_contains_cube(space, g, c) for c in f) and all(
        cover_contains_cube(space, f, c) for c in g
    )


def cover_in_range(
    space: Space,
    cover: Sequence[int],
    onset: Sequence[int],
    dcset: Sequence[int] = (),
) -> Tuple[bool, str]:
    """Is ``cover`` a legal implementation of (onset, dcset)?

    Legal means: covers every on-set minterm outside the don't-care
    set, and never covers an off-set minterm.  Returns (ok, reason).
    """
    care = list(onset) + list(dcset)
    for cube in cover:
        if not cover_contains_cube(space, care, cube):
            return False, (
                f"cube {space.format_cube(cube)} reaches the off-set"
            )
    full = list(cover) + list(dcset)
    for cube in onset:
        if not cover_contains_cube(space, full, cube):
            return False, (
                f"on-set cube {space.format_cube(cube)} not covered"
            )
    return True, "ok"


def verify_minimization(
    space: Space,
    minimized: Sequence[int],
    onset: Sequence[int],
    dcset: Sequence[int] = (),
) -> None:
    """Raise :class:`VerificationError` unless ``minimized`` is a
    legal implementation of the (onset, dcset) specification."""
    ok, reason = cover_in_range(space, minimized, onset, dcset)
    if not ok:
        raise VerificationError(reason)


def verify_pla_minimization(original: Pla, minimized: Pla) -> None:
    """PLA-level convenience wrapper for :func:`verify_minimization`."""
    if original.space != minimized.space:
        raise VerificationError("PLA shapes differ")
    verify_minimization(
        original.space,
        minimized.onset,
        original.onset,
        original.dcset,
    )
