"""Ablations of PICOLA's design choices (DESIGN.md experiments A-C).

* A — guide constraints on/off (Section 3.2's claim: guides buy
  economical implementations of infeasible constraints);
* B — objective: the full PICOLA weight policy vs pure
  dichotomy-counting vs constraint-counting (Section 2's rationale);
* C — dynamic vs static classification (Section 5: "the detection is
  dynamically done during the encoding process");
* D — the final repair pass on/off (an implementation liberty of this
  reproduction; see repro.core.repair).

``include_exact=True`` adds the branch-and-bound optimality reference
(:func:`repro.encoding.exact_encode`) as an extra column, run under a
node/wall-clock budget; a cell whose budget blows up degrades to
``BUDGET``/``TIMEOUT`` instead of killing the run.  Whole-FSM
failures are likewise isolated into ``FAILED`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..core import PicolaOptions
from ..encoding import derive_face_constraints, evaluate_encoding
from ..fsm import load_benchmark
from ..runtime import Budget, BudgetExceeded, SolverTimeout, faults
from ..solvers import get_solver
from .experiment import Experiment, payload_failed, run_experiment
from .report import render_table
from .table1 import QUICK_FSMS

__all__ = ["ABLATION_VARIANTS", "AblationReport", "run_ablation"]

ABLATION_VARIANTS: Dict[str, PicolaOptions] = {
    "full": PicolaOptions(),
    "no_guides": PicolaOptions(use_guides=False),
    "static_classify": PicolaOptions(dynamic_classify=False),
    "dichotomy_objective": PicolaOptions(weights="dichotomy_count"),
    "constraint_objective": PicolaOptions(weights="constraint_count"),
    "no_repair": PicolaOptions(final_repair=False),
    "greedy_beam": PicolaOptions(beam_width=1, beam_candidates=1),
}

#: the optimality-reference pseudo-variant (not a PicolaOptions)
EXACT_VARIANT = "exact"

#: the per-FSM, per-variant value grids (payload and report alike)
_GRIDS = ("cubes", "satisfied", "seconds", "nodes")


def _ablation_cells(
    name: str,
    *,
    variants: Sequence[str],
    timeout: Optional[float],
    exact_nodes: int,
) -> Dict[str, Dict[str, Any]]:
    """All variant cells for one FSM (runs inside the fault boundary)."""
    faults.trip("ablation.fsm", key=name)
    fsm = load_benchmark(name)
    cset = derive_face_constraints(fsm)
    cells: Dict[str, Dict[str, Any]] = {
        "cubes": {}, "satisfied": {}, "status": {},
        "seconds": {}, "nodes": {},
    }
    for variant in variants:
        if variant == EXACT_VARIANT:
            solver = get_solver("exact")
            options: Dict[str, Any] = {"strict": True}
            budget = Budget(max_nodes=exact_nodes, seconds=timeout)
        else:
            solver = get_solver("picola")
            options = {
                "picola_options": ABLATION_VARIANTS[variant],
            }
            budget = Budget(seconds=timeout)
        try:
            result = solver.solve(cset, options=options, budget=budget)
        except (SolverTimeout, BudgetExceeded) as exc:
            for grid in _GRIDS:
                cells[grid][variant] = None
            cells["status"][variant] = (
                "timeout" if isinstance(exc, SolverTimeout) else "budget"
            )
            continue
        evaluation = evaluate_encoding(result.encoding, cset)
        cells["cubes"][variant] = evaluation.total_cubes
        cells["satisfied"][variant] = evaluation.n_satisfied
        cells["seconds"][variant] = result.seconds
        cells["nodes"][variant] = result.nodes
    return cells


@dataclass
class AblationReport(Experiment):
    variants: List[str]
    cubes: Dict[str, Dict[str, Optional[int]]] = field(
        default_factory=dict
    )
    satisfied: Dict[str, Dict[str, Optional[int]]] = field(
        default_factory=dict
    )
    #: per-cell wall clock of the encode step, fsm -> variant -> s
    seconds: Dict[str, Dict[str, Optional[float]]] = field(
        default_factory=dict
    )
    #: per-cell solver work, fsm -> variant -> nodes
    nodes: Dict[str, Dict[str, Optional[int]]] = field(
        default_factory=dict
    )
    #: per-cell degradation reasons, fsm -> variant -> reason
    cell_status: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: whole-FSM failures, fsm -> reason
    failures: Dict[str, str] = field(default_factory=dict)

    tag = "ablation"
    unit = staticmethod(_ablation_cells)

    @classmethod
    def start(cls, params: Dict, keys: List[str]) -> "AblationReport":
        return cls(variants=list(params["variants"]))

    @staticmethod
    def progress(key: str, payload: Dict[str, Any]) -> str:
        return f"{key}: {payload['cubes']}"

    def fold(self, key: str, payload: Dict[str, Any]) -> None:
        if payload_failed(payload):
            self.failures[key] = payload.get("reason") or payload["status"]
            return
        for grid in _GRIDS:
            getattr(self, grid)[key] = dict(payload.get(grid, {}))
        status = dict(payload.get("status", {}))
        if status:
            self.cell_status[key] = status

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    def total(self, variant: str) -> int:
        return sum(
            self.cubes[f][variant]
            for f in self.cubes
            if self.cubes[f].get(variant) is not None
        )

    def render(self, profile: bool = False) -> str:
        """Text table; ``profile=True`` appends per-variant seconds
        and solver-work (nodes) tables."""
        headers = ["FSM"] + list(self.variants)
        rows = []
        for fsm in self.cubes:
            cells: List[object] = [fsm]
            for v in self.variants:
                cube = self.cubes[fsm].get(v)
                if cube is None:
                    reason = self.cell_status.get(fsm, {}).get(v)
                    cells.append(reason.upper() if reason else None)
                else:
                    cells.append(cube)
            rows.append(cells)
        for fsm, reason in self.failures.items():
            rows.append(
                [fsm, f"FAILED ({reason})"]
                + [None] * (len(self.variants) - 1)
            )
        footer = ["total"] + [self.total(v) for v in self.variants]
        table = render_table(
            headers, rows,
            title="Ablation - total constraint-implementation cubes "
                  "per PICOLA variant",
            footer=footer,
        )
        if profile:
            for title, grid in (
                ("Ablation - encode seconds per variant",
                 self.seconds),
                ("Ablation - solver work (nodes) per variant",
                 self.nodes),
            ):
                prof_rows = [
                    [fsm] + [grid.get(fsm, {}).get(v)
                             for v in self.variants]
                    for fsm in self.cubes
                ]
                table += "\n\n" + render_table(
                    headers, prof_rows, title=title
                )
        if self.failures:
            failed = ", ".join(
                f"{fsm} ({reason})"
                for fsm, reason in self.failures.items()
            )
            table += f"\n{self.n_failed} benchmark(s) failed: {failed}"
        return table

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": "ablation",
            "variants": list(self.variants),
            **{
                grid: {f: dict(v) for f, v in getattr(self, grid).items()}
                for grid in _GRIDS + ("cell_status",)
            },
            "failures": dict(self.failures),
            "totals": {v: self.total(v) for v in self.variants},
        }


def run_ablation(
    fsms: Optional[Sequence[str]] = None,
    variants: Optional[Sequence[str]] = None,
    *,
    verbose: bool = False,
    include_exact: bool = False,
    exact_nodes: int = 250_000,
    timeout: Optional[float] = None,
    jobs: int = 1,
) -> AblationReport:
    if fsms is None:
        fsms = QUICK_FSMS
    if variants is None:
        variants = list(ABLATION_VARIANTS)
    variants = list(variants)
    if include_exact and EXACT_VARIANT not in variants:
        variants.append(EXACT_VARIANT)
    return run_experiment(
        AblationReport, fsms,
        {
            "variants": variants, "timeout": timeout,
            "exact_nodes": exact_nodes,
        },
        jobs=jobs, verbose=verbose,
    )
