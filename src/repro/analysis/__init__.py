"""Project-aware static analysis: AST lint rules for repo invariants.

PRs 1 and 3 threaded cooperative budgets, tracer spans, the
:class:`~repro.runtime.ReproError` taxonomy and the unified solver
registry through every encoder — this package *enforces* those
conventions so they cannot silently regress:

======  ==========================================================
RPA001  kernel loops must tick/forward the in-scope Budget/Deadline
RPA002  ``tracer.span(...)`` only as a ``with`` context manager
RPA003  no broad ``except`` that swallows failures
RPA004  solver modules raise the taxonomy, not builtin exceptions
RPA005  no unseeded randomness / wall clocks / bare-set iteration
RPA008  bulk-kernel modules stay on the packed (no-wrapper) API
======  ==========================================================

Every rule inspects one file at a time.  Registry conformance of the
``*_encode`` entry points is a runtime test (``tests/test_solvers.py``),
not a lint rule.

Entry points: ``picola lint`` and ``python -m repro.analysis`` (same
flags; ``--format json`` / ``--format github`` pick the report).
Suppress one line with ``# repro: noqa[RPA001] -- why`` or a whole
file with ``# repro: noqa-file[...]``; a suppression that suppresses
nothing fails the run.  Everything is pure ``ast``/``tokenize`` — linting
never imports the code under analysis.
"""

from .cli import main, run_lint
from .engine import (
    AnalysisReport,
    FileContext,
    Finding,
    Rule,
    Suppression,
    analyze,
)
from .report import render_github, render_json, render_text
from .rules import DEFAULT_RULES, RULE_CLASSES, rules_by_id

__all__ = [
    "AnalysisReport",
    "DEFAULT_RULES",
    "FileContext",
    "Finding",
    "RULE_CLASSES",
    "Rule",
    "Suppression",
    "analyze",
    "main",
    "render_github",
    "render_json",
    "render_text",
    "rules_by_id",
    "run_lint",
]
