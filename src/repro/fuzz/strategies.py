"""Hypothesis strategies over the fuzz generators.

Thin adapters that let the property tests draw the generators'
instances — a drawn case prints as its ``(family, seed)`` pair, so a
shrunk hypothesis failure is immediately replayable with
:func:`repro.fuzz.generate_case`.

Hypothesis is a test-only dependency (the ``test`` extra); importing
this module without it raises a classified
:class:`~repro.runtime.InvalidSpecError` at first use, not at import.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..runtime import InvalidSpecError
from .generators import generate_case, list_generators

__all__ = ["fuzz_cases", "constraint_sets", "require_hypothesis"]

try:  # gated: the library must import without hypothesis installed
    from hypothesis import strategies as _st
except ImportError:  # pragma: no cover - exercised only without dep
    _st = None


def require_hypothesis():
    """Return ``hypothesis.strategies`` or raise a classified error."""
    if _st is None:
        raise InvalidSpecError(
            "hypothesis is not installed; repro.fuzz.strategies needs "
            "it (pip install the 'test' extra)"
        )
    return _st


def fuzz_cases(
    families: Optional[Sequence[str]] = None,
    *,
    max_seed: int = 10_000,
    scale: int = 24,
):
    """Strategy drawing :class:`~repro.fuzz.FuzzCase` instances.

    Draws a family and a seed and materializes the deterministic case,
    so hypothesis shrinking moves through (family, seed) space — every
    minimal counterexample stays replayable outside hypothesis.
    """
    st = require_hypothesis()
    names = tuple(families) if families else list_generators()
    for name in names:
        if name not in list_generators():
            raise InvalidSpecError(
                f"unknown generator {name!r}; "
                f"available: {list_generators()}"
            )
    return st.builds(
        generate_case,
        st.sampled_from(names),
        st.integers(min_value=0, max_value=max_seed),
        st.just(scale),
    )


def constraint_sets(
    families: Optional[Sequence[str]] = None,
    *,
    max_seed: int = 10_000,
    scale: int = 24,
):
    """Strategy drawing bare :class:`~repro.encoding.ConstraintSet`\\ s."""
    return fuzz_cases(
        families, max_seed=max_seed, scale=scale
    ).map(lambda case: case.cset)
