"""The encode→verify oracle: run one fuzz case, classify the outcome.

:func:`run_case` dispatches a generated instance through the
:mod:`repro.solvers` registry under a fresh :class:`~repro.runtime.Budget`
and then *verifies* the result against properties every encoder must
honour regardless of quality:

* the encoding is injective over exactly the case's symbols;
* every code fits the returned width, and the width equals the
  requested (or minimum) code length;
* satisfaction claims are honest — a constraint the solver reports as
  satisfied really has an empty intruder set;
* provably-optimal results on instances *constructed* satisfiable
  (``case.satisfiable``) satisfy every nontrivial constraint;
* for FSM-backed cases, the encoded machine refines the symbolic one:
  the PLA is built, minimized and co-simulated against the flow table
  over a seeded input sequence.

Every outcome is classified — the harness never crashes:

=============  =======================================================
``OK``         solved and all oracle checks passed
``INFEASIBLE`` the solver reported the instance unsolvable
               (:class:`~repro.runtime.InfeasibleError`)
``TIMEOUT``    a budget or deadline ran out
               (:class:`~repro.runtime.BudgetExceeded`)
``VIOLATION``  an oracle check failed, the encoded machine diverged in
               co-simulation, or the solver raised any other
               :class:`~repro.runtime.ReproError` on a well-formed
               instance
``CRASH``      any exception outside the ``ReproError`` taxonomy —
               always a finding
=============  =======================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..espresso import espresso_pla
from ..fsm import CosimMismatch, cosimulate, encode_fsm
from ..obs import resolve_tracer
from ..runtime import (
    Budget,
    BudgetExceeded,
    InfeasibleError,
    ReproError,
    faults,
)
from ..solvers import get_solver
from .generators import FuzzCase

__all__ = [
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
]

OK = "OK"
INFEASIBLE = "INFEASIBLE"
TIMEOUT = "TIMEOUT"
VIOLATION = "VIOLATION"
CRASH = "CRASH"

#: every classification, in severity order
CLASSIFICATIONS = (OK, INFEASIBLE, TIMEOUT, VIOLATION, CRASH)

#: the classifications that count as findings (go to the corpus)
FINDINGS = (VIOLATION, CRASH)


@dataclass
class CaseOutcome:
    """One classified fuzz-case result."""

    family: str
    seed: int
    solver: str
    classification: str
    detail: str = ""
    seconds: float = 0.0
    n_symbols: int = 0
    n_constraints: int = 0

    @property
    def is_finding(self) -> bool:
        return self.classification in FINDINGS


def _solver_options(
    solver_name: str, case: FuzzCase, seed: int
) -> Dict[str, Any]:
    solver = get_solver(solver_name)
    options: Dict[str, Any] = {}
    if case.nv is not None and "nv" in solver.option_keys:
        options["nv"] = case.nv
    if "seed" in solver.option_keys:
        options["seed"] = seed
    if "fsm" in solver.option_keys and case.fsm is not None:
        options["fsm"] = case.fsm
    return options


def verify_result(
    case: FuzzCase,
    result,
    *,
    budget: Optional[Budget] = None,
    cosim_steps: int = 128,
    cosim_seed: int = 0,
    tracer=None,
) -> List[str]:
    """Check one :class:`~repro.solvers.EncodeResult`; returns problems.

    Raises :class:`CosimMismatch` straight through (the caller maps it
    to ``VIOLATION`` with the mismatch message) and lets budget blows
    inside the espresso step surface as ``TIMEOUT``.
    """
    tracer = resolve_tracer(tracer)
    faults.trip("fuzz.verify", case.family)
    problems: List[str] = []
    encoding = result.encoding
    cset = case.cset

    if tuple(sorted(encoding.symbols)) != tuple(sorted(cset.symbols)):
        problems.append("encoding does not cover the case's symbols")
        return problems  # nothing below is meaningful
    if not encoding.is_injective():
        problems.append("encoding is not injective")
    expected_nv = case.nv or cset.min_code_length()
    if encoding.n_bits != expected_nv:
        problems.append(
            f"code length {encoding.n_bits} != expected {expected_nv}"
        )
    for s in encoding.symbols:
        code = encoding.code_of(s)
        if code < 0 or code >> encoding.n_bits:
            problems.append(
                f"code of {s} does not fit {encoding.n_bits} bits"
            )
            break

    claimed = getattr(result.raw, "satisfied", None)
    if isinstance(claimed, list):  # picola: the claimed-satisfied rows
        for constraint in claimed:
            if encoding.intruders(constraint.symbols):
                problems.append(
                    f"claimed-satisfied constraint "
                    f"{sorted(constraint.symbols)} has intruders"
                )
                break
    if (
        case.satisfiable
        and result.stats.get("optimal")
        and not problems
    ):
        for constraint in cset.nontrivial():
            if encoding.intruders(constraint.symbols):
                problems.append(
                    "instance is satisfiable by construction but the "
                    f"optimal solver left {sorted(constraint.symbols)} "
                    "unsatisfied"
                )
                break

    if case.fsm is not None and not problems:
        fsm = case.fsm
        with tracer.span("fuzz/cosim", fsm=fsm.name):
            codes = {s: encoding.code_of(s) for s in encoding.symbols}
            pla = encode_fsm(fsm, codes, n_bits=encoding.n_bits)
            minimized = espresso_pla(
                pla, use_lastgasp=False, budget=budget, tracer=tracer
            )
            cosimulate(
                fsm, minimized, codes, encoding.n_bits,
                steps=cosim_steps, seed=cosim_seed,
            )
    return problems


def run_case(
    case: FuzzCase,
    solver: str = "picola",
    *,
    timeout: Optional[float] = None,
    max_nodes: Optional[int] = None,
    oracle_seed: int = 0,
    cosim_steps: int = 128,
    tracer=None,
) -> CaseOutcome:
    """Encode ``case`` with ``solver``, verify, classify.  Never raises.

    ``timeout``/``max_nodes`` build the per-case :class:`Budget` that
    covers both the encode step and the oracle's espresso run, so a
    pathological instance degrades to ``TIMEOUT`` instead of wedging
    the test run.
    """
    tracer = resolve_tracer(tracer)
    outcome = CaseOutcome(
        family=case.family,
        seed=case.seed,
        solver=solver,
        classification=OK,
        n_symbols=case.cset.n_symbols,
        n_constraints=len(case.cset.constraints),
    )
    t0 = time.perf_counter()
    try:
        with tracer.span(
            "fuzz/case", family=case.family, seed=case.seed,
            solver=solver,
        ):
            faults.trip("fuzz.case", case.family)
            budget = Budget(max_nodes=max_nodes, seconds=timeout)
            result = get_solver(solver).solve(
                case.cset,
                options=_solver_options(solver, case, oracle_seed),
                budget=budget,
                tracer=tracer,
            )
            problems = verify_result(
                case, result,
                budget=budget,
                cosim_steps=cosim_steps,
                cosim_seed=oracle_seed,
                tracer=tracer,
            )
        if problems:
            outcome.classification = VIOLATION
            outcome.detail = "; ".join(problems)
    except InfeasibleError as exc:
        outcome.classification = INFEASIBLE
        outcome.detail = str(exc)
    except BudgetExceeded as exc:
        outcome.classification = TIMEOUT
        outcome.detail = str(exc)
    except CosimMismatch as exc:
        outcome.classification = VIOLATION
        outcome.detail = f"cosim: {exc}"
    except ReproError as exc:
        # classified, but unexpected on a well-formed instance: the
        # solver broke its contract (e.g. rejected generated input)
        outcome.classification = VIOLATION
        outcome.detail = f"{type(exc).__name__}: {exc}"
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:
        # this IS the fuzz oracle's finding boundary; unclassified exceptions
        # become CRASH outcomes
        outcome.classification = CRASH
        outcome.detail = f"{type(exc).__name__}: {exc}"
    outcome.seconds = time.perf_counter() - t0
    tracer.count(f"fuzz.{outcome.classification.lower()}")
    return outcome
