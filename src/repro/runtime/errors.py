"""Structured error taxonomy for the reproduction.

Every failure mode the harness knows how to degrade gracefully derives
from :class:`ReproError`, so boundary code (the CLI, the per-benchmark
isolation in :mod:`repro.harness`) can catch one base class instead of
guessing which builtin a solver happened to raise.

The concrete classes double-inherit from the builtin exception each
condition historically raised (``ValueError`` for malformed input,
``RuntimeError`` for exhausted budgets), so pre-existing call sites
that catch the builtin keep working unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ParseError",
    "InvalidSpecError",
    "InfeasibleError",
    "InvariantViolation",
    "BudgetExceeded",
    "SolverTimeout",
]


class ReproError(Exception):
    """Base class of every structured failure in this package."""


class ParseError(ReproError, ValueError):
    """Malformed input text (KISS2, PLA, cube strings, ...)."""


class InvalidSpecError(ReproError, ValueError):
    """A problem specification or solver option is invalid (bad
    variant name, inconsistent widths, duplicate symbols, ...).

    Distinct from :class:`ParseError` (malformed *text*) and
    :class:`InfeasibleError` (well-formed but unsolvable)."""


class InfeasibleError(ReproError, ValueError):
    """The requested problem has no solution (e.g. code length too
    small to distinguish the symbols)."""


class InvariantViolation(ReproError, RuntimeError):
    """An internal solver invariant broke mid-run — a bug in this
    package, not in the caller's input.  Raised instead of a bare
    ``RuntimeError`` so harness isolation reports it as FAILED with
    the structured taxonomy."""


class BudgetExceeded(ReproError, RuntimeError):
    """A cooperative node/iteration budget ran out mid-search."""


class SolverTimeout(BudgetExceeded):
    """A wall-clock deadline expired mid-search.

    Subclasses :class:`BudgetExceeded` because a deadline is just the
    wall-clock flavour of a budget; callers that degrade on budget
    exhaustion degrade identically on timeouts.
    """

