"""The state-assignment tool of the paper's Section 4.

Pipeline (the paper's two-step strategy with PICOLA at its core):

1. model the FSM as an input-encoding problem (present state = one
   multi-valued variable, next state one-hot);
2. multi-valued minimization -> face constraints, weighted by how many
   symbolic implicants need each face;
3. encode the states with minimum code length — PICOLA for the NEW
   tool, or any of the baselines for comparison;
4. build the encoded machine's PLA and minimize it with espresso; the
   product-term count is the paper's Table II "size".

``assign_states`` runs the whole pipeline for one method and returns
an :class:`AssignmentResult` with the measured wall-clock time of the
encoding step (Table II's normalized "time").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core import PicolaOptions
from ..encoding import ConstraintSet, Encoding, derive_face_constraints
from ..obs import resolve_tracer
from ..runtime import Budget, InvalidSpecError
from ..espresso import EspressoStats, Pla, espresso_pla
from ..fsm import Fsm, encode_fsm
from ..solvers import get_solver

__all__ = ["AssignmentResult", "assign_states", "METHODS"]

METHODS = (
    "picola",
    "nova_ih",
    "nova_ioh",
    "nova_greedy",
    "enc",
    "mustang_p",
    "mustang_n",
    "natural",
    "gray",
    "random",
)

#: method name -> (registry solver, fixed options) — the whole former
#: if/elif dispatch, now data
_METHOD_SOLVERS: Dict[str, Any] = {
    "picola": ("picola", {}),
    "nova_ih": ("nova", {"variant": "i_hybrid"}),
    "nova_ioh": ("nova", {"variant": "io_hybrid"}),
    "nova_greedy": ("nova", {"variant": "i_greedy"}),
    "enc": ("enc", {}),
    "mustang_p": ("mustang", {"variant": "p"}),
    "mustang_n": ("mustang", {"variant": "n"}),
    "natural": ("simple", {"scheme": "natural"}),
    "gray": ("simple", {"scheme": "gray"}),
    "random": ("simple", {"scheme": "random"}),
}

#: which EncodeResult.stats keys surface in AssignmentResult.extra
_EXTRA_KEYS = {
    "picola": ("satisfied", "guided"),
    "nova": ("satisfied",),
    "mustang": ("attraction",),
    "enc": ("converged", "minimizations"),
    "simple": (),
}


@dataclass
class AssignmentResult:
    """Outcome of one state assignment + two-level implementation."""

    fsm: Fsm
    method: str
    encoding: Encoding
    constraints: ConstraintSet
    pla: Pla
    minimized: Pla
    encode_seconds: float
    minimize_seconds: float
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Product terms of the minimized two-level implementation."""
        return self.minimized.num_terms()

    @property
    def literals(self) -> int:
        return self.minimized.literal_count()

    @property
    def area(self) -> int:
        return self.minimized.gate_area()

    def summary(self) -> str:
        return (
            f"{self.fsm.name}/{self.method}: size={self.size} "
            f"terms, {self.literals} literals, "
            f"encode {self.encode_seconds:.3f}s"
        )


def _encode(
    fsm: Fsm,
    cset: ConstraintSet,
    method: str,
    seed: int,
    picola_options: Optional[PicolaOptions],
    extra: Dict[str, object],
    budget: Optional[Budget],
    tracer,
) -> Encoding:
    try:
        solver_name, fixed = _METHOD_SOLVERS[method]
    except KeyError:
        raise InvalidSpecError(
            f"unknown method {method!r}; choose from {METHODS}"
        ) from None
    options: Dict[str, Any] = dict(fixed)
    solver = get_solver(solver_name)
    if "seed" in solver.option_keys:
        options["seed"] = seed
    if "fsm" in solver.option_keys:
        options["fsm"] = fsm
    if solver_name == "picola" and picola_options is not None:
        options["picola_options"] = picola_options
    # one count per encode step keeps the ledger's per-layer
    # ``service.requests`` row (76 per Table II pass)
    tracer.count("service.requests")
    result = solver.solve(
        cset, options=options, budget=budget, tracer=tracer
    )
    for key in _EXTRA_KEYS[solver_name]:
        if key in result.stats:
            extra[key] = result.stats[key]
    extra["encode_nodes"] = result.nodes
    return result.encoding


def assign_states(
    fsm: Fsm,
    method: str = "picola",
    *,
    seed: int = 0,
    picola_options: Optional[PicolaOptions] = None,
    constraints: Optional[ConstraintSet] = None,
    minimize: bool = True,
    budget: Optional[Budget] = None,
    tracer=None,
) -> AssignmentResult:
    """State-assign ``fsm`` and implement it in two levels.

    ``constraints`` may be passed in to share the symbolic
    minimization across methods (the harness does this so all tools
    see the identical input-encoding problem).  ``budget`` is a
    cooperative deadline/counter threaded through the encoder and
    the espresso minimization; ``tracer`` (default: the module-level
    tracer) records ``assign/encode`` and ``assign/minimize`` spans
    around the two timed pipeline steps.
    """
    tracer = resolve_tracer(tracer)
    if constraints is None:
        constraints = derive_face_constraints(fsm)
    extra: Dict[str, object] = {}
    t0 = time.perf_counter()
    with tracer.span("assign/encode", fsm=fsm.name, method=method):
        encoding = _encode(
            fsm, constraints, method, seed, picola_options, extra,
            budget, tracer,
        )
    encode_seconds = time.perf_counter() - t0

    pla = encode_fsm(
        fsm,
        {s: encoding.code_of(s) for s in encoding.symbols},
        n_bits=encoding.n_bits,
    )
    t0 = time.perf_counter()
    if minimize:
        stats = EspressoStats()
        with tracer.span(
            "assign/minimize", fsm=fsm.name, method=method
        ):
            minimized = espresso_pla(
                pla, stats=stats, use_lastgasp=False, budget=budget,
                tracer=tracer,
            )
        extra["espresso_iterations"] = stats.iterations
    else:
        minimized = pla
    minimize_seconds = time.perf_counter() - t0
    return AssignmentResult(
        fsm=fsm,
        method=method,
        encoding=encoding,
        constraints=constraints,
        pla=pla,
        minimized=minimized,
        encode_seconds=encode_seconds,
        minimize_seconds=minimize_seconds,
        extra=extra,
    )
