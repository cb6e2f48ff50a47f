"""Table II: state assignment — two-level size and normalized time.

The paper's Table II implements the combinational component of each
IWLS-93 FSM in two levels under three state assignments — NOVA
``i_hybrid``, NOVA ``io_hybrid`` and the NEW (PICOLA-based) tool — and
reports the minimized product-term count ("size") plus run times
normalized to NOVA i_hybrid.  This module regenerates those rows and
the totals line.

Rows run behind the :mod:`repro.runtime` fault boundary: a crashing
benchmark yields a ``FAILED (<reason>)`` row, a method that exceeds
the optional per-method ``timeout`` renders a ``TIMEOUT`` cell.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..encoding import derive_face_constraints
from ..fsm import TABLE2_FSMS, load_benchmark
from ..runtime import Budget, BudgetExceeded, SolverTimeout, faults
from ..runtime.isolation import Outcome, failure_reason
from ..stateassign import assign_states
from .experiment import Experiment, run_experiment
from .report import render_table

__all__ = ["Table2Row", "Table2Report", "run_table2", "QUICK_FSMS2"]

#: subset used by --quick runs and the test-suite
QUICK_FSMS2 = ["dk16", "donfile", "ex2", "keyb", "tma", "s386"]

#: the Table II methods, in the paper's column order
TABLE2_METHODS = ("nova_ih", "nova_ioh", "picola")


@dataclass
class Table2Row:
    fsm: str
    sizes: Dict[str, Optional[int]] = field(default_factory=dict)
    seconds: Dict[str, Optional[float]] = field(default_factory=dict)
    #: per-method encoder work (beam states / moves / minimizations)
    nodes: Dict[str, Optional[int]] = field(default_factory=dict)
    #: "ok" | "timeout" | "budget" | "failed" — row-level outcome
    status: str = "ok"
    error: Optional[str] = None
    #: per-method cell outcome for non-numeric cells
    method_status: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def failure_reason(self) -> str:
        return failure_reason(self.status, self.error)

    def time_ratio(self, method: str) -> Optional[float]:
        base = self.seconds.get("nova_ih")
        seconds = self.seconds.get(method)
        if not base or seconds is None:
            return None
        return seconds / base

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def _table2_row(
    name: str, *, seed: int, timeout: Optional[float]
) -> Table2Row:
    """Compute one Table II row (runs inside the fault boundary)."""
    faults.trip("table2.row", key=name)
    fsm = load_benchmark(name)
    # all methods see the identical input-encoding problem
    cset = derive_face_constraints(fsm)
    row = Table2Row(fsm=name)
    for method in TABLE2_METHODS:
        try:
            result = assign_states(
                fsm, method, seed=seed, constraints=cset,
                budget=Budget(seconds=timeout),
            )
        except (SolverTimeout, BudgetExceeded) as exc:
            for cells in (row.sizes, row.seconds, row.nodes):
                cells[method] = None
            row.method_status[method] = (
                "timeout" if isinstance(exc, SolverTimeout) else "budget"
            )
        else:
            row.sizes[method] = result.size
            row.seconds[method] = result.encode_seconds
            row.nodes[method] = result.extra.get("encode_nodes")
    return row


@dataclass
class Table2Report(Experiment):
    rows: List[Table2Row] = field(default_factory=list)

    unit = staticmethod(_table2_row)

    @staticmethod
    def progress(key: str, row: Table2Row) -> str:
        return f"{key}: " + " ".join(
            f"{m}={row.sizes.get(m)}" for m in TABLE2_METHODS
        )

    def fold(self, key: str, outcome: Outcome) -> None:
        self.rows.append(
            outcome.value if outcome.ok
            else Table2Row(fsm=key, status=outcome.status, error=outcome.error)
        )

    def total_size(self, method: str) -> int:
        return sum(
            r.sizes[method] for r in self.rows
            if r.ok and r.sizes.get(method) is not None
        )

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.rows if not r.ok)

    def render(self, profile: bool = False) -> str:
        """Text table; ``profile=True`` adds raw seconds and encoder
        work (nodes) per method."""
        headers = [
            "FSM",
            "NOVA-ih size", "time",
            "NOVA-ioh size", "time",
            "NEW size", "time",
        ]
        if profile:
            for method in TABLE2_METHODS:
                headers += [f"t:{method}", f"n:{method}"]
        rows = []
        for r in self.rows:
            if not r.ok:
                cells: List[object] = [
                    r.fsm, f"FAILED ({r.failure_reason})",
                    None, None, None, None, None,
                ]
                if profile:
                    cells += [None] * (2 * len(TABLE2_METHODS))
                rows.append(cells)
                continue
            cells = [r.fsm]
            for method in TABLE2_METHODS:
                size = r.sizes.get(method)
                if size is None:
                    cell_status = r.method_status.get(method)
                    cells.append(
                        cell_status.upper() if cell_status else None
                    )
                else:
                    cells.append(size)
                cells.append(r.time_ratio(method))
            if profile:
                for method in TABLE2_METHODS:
                    cells.append(r.seconds.get(method))
                    cells.append(r.nodes.get(method))
            rows.append(cells)
        footer = [
            "total",
            self.total_size("nova_ih"), None,
            self.total_size("nova_ioh"), None,
            self.total_size("picola"), None,
        ]
        if profile:
            for method in TABLE2_METHODS:
                footer.append(sum(
                    r.seconds[method] for r in self.rows
                    if r.ok and r.seconds.get(method) is not None
                ))
                footer.append(sum(
                    r.nodes[method] for r in self.rows
                    if r.ok and r.nodes.get(method) is not None
                ))
        table = render_table(
            headers, rows,
            title="Table II - state assignment: two-level size and "
                  "time (normalized to NOVA i_hybrid)",
            footer=footer,
        )
        new = self.total_size("picola")
        ih = self.total_size("nova_ih")
        ioh = self.total_size("nova_ioh")
        summary = (
            f"\nNEW total {new} vs NOVA-ih {ih} "
            f"({100 * (ih - new) / max(new, 1):+.1f}%) and NOVA-ioh "
            f"{ioh} ({100 * (ioh - new) / max(new, 1):+.1f}%) "
            f"(paper: NEW compares favorably to both)"
        )
        if self.n_failed:
            failed = ", ".join(
                f"{r.fsm} ({r.failure_reason})"
                for r in self.rows if not r.ok
            )
            summary += f"\n{self.n_failed} benchmark(s) failed: {failed}"
        return table + summary

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": "table2",
            "rows": [
                dict(
                    r.to_dict(),
                    time_ratios={m: r.time_ratio(m) for m in r.sizes},
                )
                for r in self.rows
            ],
            "summary": {
                # the union of methods over every ok row, in first-seen
                # order — the first ok row alone can have TIMEOUT holes
                "totals": {
                    m: self.total_size(m)
                    for m in dict.fromkeys(
                        m for r in self.rows if r.ok for m in r.sizes
                    )
                },
                "failed": self.n_failed,
            },
        }


def run_table2(
    fsms: Optional[Sequence[str]] = None,
    *,
    seed: int = 1,
    verbose: bool = False,
    timeout: Optional[float] = None,
    jobs: int = 1,
) -> Table2Report:
    """Regenerate Table II over the given FSM list (default: all rows).

    ``timeout`` bounds each method's wall clock (a blown deadline
    renders a ``TIMEOUT`` cell).  ``jobs`` parallelizes rows over
    worker processes with deterministic submission-order merging.
    """
    return run_experiment(
        Table2Report, TABLE2_FSMS if fsms is None else fsms,
        {"seed": seed, "timeout": timeout},
        jobs=jobs, verbose=verbose,
    )
