"""PICOLA reproduction: face-constrained encoding with minimum code length.

This package reproduces, end to end, the system of

    M. Martinez, M. J. Avedillo, J. M. Quintana, J. L. Huertas,
    "An Algorithm for Face-Constrained Encoding of Symbols Using Minimum
    Code Length", DATE 1999.

It contains the PICOLA algorithm itself (:mod:`repro.core`), every
substrate it needs — a positional-cube kernel (:mod:`repro.cubes`), an
ESPRESSO-style two-level minimizer (:mod:`repro.espresso`), a KISS2 FSM
substrate with a benchmark library (:mod:`repro.fsm`), the encoding /
constraint framework (:mod:`repro.encoding`) — plus the NOVA- and
ENC-style baselines (:mod:`repro.baselines`), the state-assignment tool
of the paper's Section 4 (:mod:`repro.stateassign`) and the experiment
harness regenerating Tables I and II (:mod:`repro.harness`).

Since 1.1.0 every encoder is also reachable through the unified
solver registry (:mod:`repro.solvers`) and instrumented with the
zero-dependency observability layer (:mod:`repro.obs`).  The
conventions those layers rely on — budget threading, span hygiene,
the error taxonomy, determinism — are checked by the test suite
(``tests/test_invariants.py``, ``tests/test_runtime.py``).

Quickstart::

    from repro import FaceConstraint, picola_encode

    symbols = [f"s{i}" for i in range(1, 9)]
    constraints = [FaceConstraint({"s1", "s2"}),
                   FaceConstraint({"s2", "s6", "s8"})]
    result = picola_encode(symbols, constraints)
    print(result.encoding.as_table())

or, uniformly across solvers::

    from repro import get_solver

    result = get_solver("picola").solve(symbols, constraints)
    print(result.encoding.as_table(), result.seconds, result.nodes)

``solve`` takes a ``budget=Budget(max_nodes=..., seconds=...)`` for
a cooperative limit and a ``tracer=Tracer(MemorySink())`` for a
per-call trace; ``repro.runtime.run_isolated(solver.solve, ...)``
turns a failure into a classified outcome instead of an exception.
"""

from .core import PicolaOptions, PicolaResult, picola_encode
from .cubes import Cover, Space
from .encoding import (
    ConstraintSet,
    Encoding,
    EvaluationReport,
    FaceConstraint,
    derive_face_constraints,
    evaluate_encoding,
)
from .espresso import Pla, espresso, exact_minimize
from .fsm import Fsm, load_benchmark, parse_kiss
from .obs import (
    ConsoleSink,
    JsonlSink,
    MemorySink,
    NullTracer,
    NULL_TRACER,
    ProfileReport,
    Span,
    Tracer,
    get_tracer,
    profile_report,
    resolve_tracer,
    set_tracer,
)
from .runtime import (
    Budget,
    BudgetExceeded,
    Checkpoint,
    CheckpointError,
    Deadline,
    InfeasibleError,
    InvalidSpecError,
    InvariantViolation,
    ParseError,
    ReproError,
    SolverTimeout,
)
from .solvers import (
    EncodeResult,
    Solver,
    get_solver,
    list_solvers,
    register_solver,
)
from .stateassign import assign_states

__version__ = "1.8.0"

__all__ = [
    "PicolaOptions",
    "PicolaResult",
    "picola_encode",
    "Cover",
    "Space",
    "ConstraintSet",
    "Encoding",
    "EvaluationReport",
    "FaceConstraint",
    "derive_face_constraints",
    "evaluate_encoding",
    "Pla",
    "espresso",
    "exact_minimize",
    "Fsm",
    "load_benchmark",
    "parse_kiss",
    "assign_states",
    "EncodeResult",
    "Solver",
    "get_solver",
    "list_solvers",
    "register_solver",
    "ConsoleSink",
    "JsonlSink",
    "MemorySink",
    "NullTracer",
    "NULL_TRACER",
    "ProfileReport",
    "Span",
    "Tracer",
    "get_tracer",
    "profile_report",
    "resolve_tracer",
    "set_tracer",
    "Budget",
    "BudgetExceeded",
    "Checkpoint",
    "CheckpointError",
    "Deadline",
    "InfeasibleError",
    "InvalidSpecError",
    "InvariantViolation",
    "ParseError",
    "ReproError",
    "SolverTimeout",
    "__version__",
]
