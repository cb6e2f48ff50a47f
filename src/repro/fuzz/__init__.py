"""End-to-end pipeline fuzzing: generators, oracle, corpus.

The pieces the property tests in ``tests/test_fuzz_pipeline.py`` drive
(see ``docs/fuzzing.md``):

* :mod:`repro.fuzz.generators` — seeded workload generators (random,
  FSM-backed, Baer bounded-length prefix groups, Dubé 2-D grids,
  pathological shapes), all pure functions of ``(seed, scale)``;
* :mod:`repro.fuzz.oracle` — :func:`run_case` dispatches an instance
  through the solver registry under a budget, verifies the result
  (injectivity, code-length bounds, honest satisfaction claims,
  co-simulation) and classifies every outcome — OK / INFEASIBLE /
  TIMEOUT / VIOLATION / CRASH — without ever crashing the harness;
* :mod:`repro.fuzz.corpus` — findings committed as content-addressed
  JSON regressions under ``tests/corpus/`` and replayed by the tests;
* :mod:`repro.fuzz.strategies` — hypothesis strategies over the
  generators (hypothesis is imported only there, on first use).
"""

from .corpus import (
    CorpusEntry,
    entry_for_finding,
    load_corpus,
    parser_entry,
    replay_entry,
    save_entry,
)
from .generators import (
    FuzzCase,
    generate_case,
    get_generator,
    list_generators,
)
from .oracle import (
    CLASSIFICATIONS,
    CRASH,
    FINDINGS,
    INFEASIBLE,
    OK,
    TIMEOUT,
    VIOLATION,
    CaseOutcome,
    run_case,
    verify_result,
)

__all__ = [
    # generators
    "FuzzCase",
    "get_generator",
    "list_generators",
    "generate_case",
    # oracle
    "OK",
    "INFEASIBLE",
    "TIMEOUT",
    "VIOLATION",
    "CRASH",
    "CLASSIFICATIONS",
    "FINDINGS",
    "CaseOutcome",
    "run_case",
    "verify_result",
    # corpus
    "CorpusEntry",
    "entry_for_finding",
    "parser_entry",
    "save_entry",
    "load_corpus",
    "replay_entry",
]
