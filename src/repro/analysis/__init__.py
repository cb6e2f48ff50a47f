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
RPA009  the service layer speaks EncodeRequest/EncodeResponse
RPA010  shared mutable state on a thread path is lock-guarded
RPA011  no live lock/socket/file captured into a pool submission
RPA012  budgets thread through every Solver.solve call chain
RPA013  cached derived state is invalidated on every mutator exit
RPA014  no indefinite blocking call while holding a lock
======  ==========================================================

RPA010–RPA014 are *flow* rules: :mod:`repro.analysis.callgraph`
builds a whole-program symbol table + call graph with per-function
escape summaries (mutations, lock depths, blocking calls, thread and
pool spawns), and :mod:`repro.analysis.flow` proves the concurrency /
fork-safety invariants over the thread-reachable closure.  Registry
conformance of the ``*_encode`` entry points is a runtime test
(``tests/test_solvers.py``), not a lint rule.

Entry points: ``picola lint`` and ``python -m repro.analysis`` (same
flags; ``--graph json`` dumps the call graph, ``--format json`` /
``--format github`` pick the report).  Suppress one line with
``# repro: noqa[RPA001] -- why`` or a whole file with
``# repro: noqa-file[...]``; a suppression that suppresses nothing
fails the run.  Everything is pure ``ast``/``tokenize`` — linting
never imports the code under analysis.
"""

from .callgraph import Program, build_program
from .cli import main, run_lint
from .engine import (
    AnalysisReport,
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    Suppression,
    analyze,
)
from .flow import program_for, thread_roots
from .report import render_github, render_json, render_text
from .rules import DEFAULT_RULES, RULE_CLASSES, rules_by_id

__all__ = [
    "AnalysisReport",
    "DEFAULT_RULES",
    "FileContext",
    "Finding",
    "Program",
    "ProjectRule",
    "RULE_CLASSES",
    "Rule",
    "Suppression",
    "analyze",
    "build_program",
    "main",
    "program_for",
    "render_github",
    "render_json",
    "render_text",
    "rules_by_id",
    "run_lint",
    "thread_roots",
]
