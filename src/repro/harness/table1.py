"""Table I: cubes to implement the constraints under min-length codes.

For every benchmark FSM the paper's Table I reports the number of
group constraints of the derived input-encoding problem and the number
of product terms needed to implement the *complete* constraint set
under the minimum-length encodings produced by NOVA, ENC and PICOLA.
This module regenerates those rows (plus the summary statistics quoted
in the text: win/loss counts against NOVA and the global cost ratio).

ENC runs under a minimization budget; a row whose budget blows up is
reported as ``fails`` — the paper reports exactly that for ``scf``.

Every benchmark runs behind the :mod:`repro.runtime` fault boundary:
an FSM whose solvers crash or exceed the optional per-solver
``timeout`` yields a ``FAILED (<reason>)`` row (or a ``TIMEOUT`` ENC
cell) while the rest of the table completes.
Rows are independent, so ``jobs`` fans them out over the
:mod:`repro.harness.parallel` process pool with deterministic,
submission-order merging.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..encoding import derive_face_constraints, evaluate_encoding
from ..fsm import BENCHMARKS, TABLE1_FSMS, load_benchmark
from ..runtime import Budget, BudgetExceeded, SolverTimeout, faults
from ..runtime.isolation import Outcome, failure_reason
from ..solvers import get_solver
from .experiment import Experiment, run_experiment
from .report import render_table

__all__ = ["Table1Row", "Table1Report", "run_table1", "QUICK_FSMS"]

#: small/medium subset used by --quick runs and the test-suite
QUICK_FSMS = [
    "bbara", "ex3", "ex5", "ex7", "lion9", "mark1", "opus",
    "train11", "s8", "s27", "dk16", "donfile", "ex2", "keyb", "tma",
]

#: FSMs on which ENC's minimizer-in-the-loop is given up as
#: impractical (mirrors the paper: "ENC is not practical for medium
#: and large examples ... it fails to solve problem scf")
ENC_SKIP = {"scf", "tbk", "kirkman", "s820", "s832", "s510", "planet"}


@dataclass
class Table1Row:
    fsm: str
    n_constraints: int = 0
    cubes_nova: Optional[int] = None
    cubes_enc: Optional[int] = None  # None when failed or not attempted
    enc_attempted: bool = False
    cubes_picola: Optional[int] = None
    seconds_nova: Optional[float] = None
    seconds_enc: Optional[float] = None
    seconds_picola: Optional[float] = None
    nodes_nova: Optional[int] = None
    nodes_enc: Optional[int] = None
    nodes_picola: Optional[int] = None
    paper_constraints: Optional[int] = None
    paper_nova: Optional[int] = None
    paper_picola: Optional[int] = None
    #: "ok" | "timeout" | "budget" | "failed" — row-level outcome
    status: str = "ok"
    #: diagnostic for non-ok rows
    error: Optional[str] = None
    #: ENC-cell outcome when the row itself is ok ("timeout"/"budget")
    enc_status: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def failure_reason(self) -> str:
        return failure_reason(self.status, self.error)

    # -- unit payload / JSON (missing keys take the defaults) --------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        for f in fields(self):
            group, key = _wire(f.name)
            target = data.setdefault(group, {}) if group else data
            target[key] = getattr(self, f.name)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Table1Row":
        kwargs = {}
        for f in fields(cls):
            group, key = _wire(f.name)
            source = data.get(group, {}) if group else data
            if key in source:
                kwargs[f.name] = source[key]
        return cls(**kwargs)


def _wire(name: str) -> Tuple[Optional[str], str]:
    """``(group, key)`` of :class:`Table1Row` field ``name`` in the
    payload: ``cubes_nova`` is ``cubes.nova`` (likewise ``seconds_``,
    ``nodes_``, ``paper_``), ``n_constraints`` is ``constraints``."""
    group, _, leaf = name.partition("_")
    if group in ("cubes", "seconds", "nodes", "paper"):
        return group, leaf
    return None, "constraints" if name == "n_constraints" else name


def _table1_row(
    name: str,
    *,
    include_enc: bool,
    enc_budget: int,
    seed: int,
    timeout: Optional[float],
    fsm_seed: int = 0,
) -> Dict[str, Any]:
    """Compute one Table I row payload (runs inside the fault boundary).

    ``seed`` seeds NOVA and ENC; ``fsm_seed`` is the benchmark
    generator's seed (0 is the Table I draw, the seed sweep varies it).
    """
    faults.trip("table1.row", key=name)
    fsm = load_benchmark(name, seed=fsm_seed)
    cset = derive_face_constraints(fsm)
    spec = BENCHMARKS.get(name)

    picola = get_solver("picola").solve(
        cset, budget=Budget(seconds=timeout)
    )
    cubes_picola = evaluate_encoding(
        picola.encoding, cset
    ).total_cubes

    nova = get_solver("nova").solve(
        cset, options={"seed": seed}, budget=Budget(seconds=timeout)
    )
    cubes_nova = evaluate_encoding(nova.encoding, cset).total_cubes

    cubes_enc: Optional[int] = None
    t_enc: Optional[float] = None
    nodes_enc: Optional[int] = None
    enc_status: Optional[str] = None
    enc_attempted = include_enc
    if include_enc and name not in ENC_SKIP:
        t0 = time.perf_counter()
        try:
            enc = get_solver("enc").solve(
                cset,
                options={
                    "seed": seed, "max_minimizations": enc_budget,
                },
                budget=Budget(seconds=timeout),
            )
        except SolverTimeout:
            enc_status = "timeout"
        except BudgetExceeded:
            enc_status = "budget"
        else:
            nodes_enc = enc.nodes
            if enc.stats["converged"]:
                cubes_enc = evaluate_encoding(
                    enc.encoding, cset
                ).total_cubes
        t_enc = time.perf_counter() - t0

    return Table1Row(
        fsm=name,
        n_constraints=len(cset.nontrivial()),
        cubes_nova=cubes_nova,
        cubes_enc=cubes_enc,
        enc_attempted=enc_attempted,
        cubes_picola=cubes_picola,
        seconds_nova=nova.seconds,
        seconds_enc=t_enc,
        seconds_picola=picola.seconds,
        nodes_nova=nova.nodes,
        nodes_enc=nodes_enc,
        nodes_picola=picola.nodes,
        paper_constraints=spec.paper_constraints if spec else None,
        paper_nova=spec.paper_cubes_nova if spec else None,
        paper_picola=spec.paper_cubes_picola if spec else None,
        enc_status=enc_status,
    ).to_dict()


def _comparable(rows: Sequence[Table1Row]) -> List[Table1Row]:
    return [
        r for r in rows
        if r.ok and r.cubes_nova is not None
        and r.cubes_picola is not None
    ]


@dataclass
class Table1Report(Experiment):
    rows: List[Table1Row] = field(default_factory=list)

    tag = "table1"
    unit = staticmethod(_table1_row)

    @staticmethod
    def failure(key: str, outcome: Outcome) -> Dict[str, Any]:
        return Table1Row(
            fsm=key, status=outcome.status, error=outcome.error
        ).to_dict()

    @staticmethod
    def progress(key: str, payload: Dict[str, Any]) -> str:
        cubes = payload["cubes"]
        return (
            f"{key}: const={payload['constraints']} "
            f"nova={cubes['nova']} enc={cubes['enc']} "
            f"picola={cubes['picola']}"
        )

    def fold(self, key: str, payload: Dict[str, Any]) -> None:
        self.rows.append(Table1Row.from_dict(payload))

    # -- summary statistics the paper quotes ---------------------------
    @property
    def picola_wins(self) -> int:
        return sum(
            1 for r in _comparable(self.rows)
            if r.cubes_picola < r.cubes_nova
        )

    @property
    def nova_wins(self) -> int:
        return sum(
            1 for r in _comparable(self.rows)
            if r.cubes_nova < r.cubes_picola
        )

    @property
    def ties(self) -> int:
        return sum(
            1 for r in _comparable(self.rows)
            if r.cubes_nova == r.cubes_picola
        )

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.rows if not r.ok)

    @property
    def nova_overhead(self) -> float:
        """How much more expensive NOVA is overall (paper: ~11%)."""
        rows = _comparable(self.rows)
        total_picola = sum(r.cubes_picola for r in rows)
        total_nova = sum(r.cubes_nova for r in rows)
        if total_picola == 0:
            return 0.0
        return (total_nova - total_picola) / total_picola

    def render(self, profile: bool = False) -> str:
        """Text table; ``profile=True`` adds per-row time/node columns."""
        headers = [
            "FSM", "const", "NOVA", "ENC", "PICOLA",
            "paper:const", "paper:NOVA", "paper:PICOLA",
        ]
        if profile:
            headers += [
                "t:NOVA", "t:PICOLA", "n:NOVA", "n:PICOLA",
            ]
        rows = []
        for r in self.rows:
            if not r.ok:
                cells: List[object] = [
                    r.fsm, f"FAILED ({r.failure_reason})",
                    None, None, None,
                    r.paper_constraints, r.paper_nova, r.paper_picola,
                ]
                if profile:
                    cells += [None, None, None, None]
                rows.append(cells)
                continue
            if r.cubes_enc is not None:
                enc_cell: object = r.cubes_enc
            elif r.enc_status in ("timeout", "budget"):
                enc_cell = r.enc_status.upper()
            elif r.enc_attempted:
                enc_cell = "fails"
            else:
                enc_cell = None
            cells = [
                r.fsm, r.n_constraints, r.cubes_nova,
                enc_cell,
                r.cubes_picola,
                r.paper_constraints, r.paper_nova, r.paper_picola,
            ]
            if profile:
                cells += [
                    r.seconds_nova, r.seconds_picola,
                    r.nodes_nova, r.nodes_picola,
                ]
            rows.append(cells)
        ok_rows = _comparable(self.rows)
        footer = [
            "total",
            sum(r.n_constraints for r in ok_rows),
            sum(r.cubes_nova for r in ok_rows),
            sum(
                r.cubes_enc for r in ok_rows
                if r.cubes_enc is not None
            ),
            sum(r.cubes_picola for r in ok_rows),
            None, None, None,
        ]
        if profile:
            footer += [
                sum(r.seconds_nova or 0.0 for r in ok_rows),
                sum(r.seconds_picola or 0.0 for r in ok_rows),
                sum(r.nodes_nova or 0 for r in ok_rows),
                sum(r.nodes_picola or 0 for r in ok_rows),
            ]
        table = render_table(
            headers, rows,
            title="Table I - constraint implementation cubes "
                  "(minimum-length encodings)",
            footer=footer,
        )
        summary = (
            f"\nPICOLA wins {self.picola_wins}, NOVA wins "
            f"{self.nova_wins}, ties {self.ties} "
            f"(paper: PICOLA 16, NOVA 7)\n"
            f"NOVA overhead vs PICOLA: {100 * self.nova_overhead:.1f}% "
            f"(paper: ~11%)"
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
            "experiment": "table1",
            "rows": [r.to_dict() for r in self.rows],
            "summary": {
                "picola_wins": self.picola_wins,
                "nova_wins": self.nova_wins,
                "ties": self.ties,
                "nova_overhead": self.nova_overhead,
                "failed": self.n_failed,
            },
        }


def run_table1(
    fsms: Optional[Sequence[str]] = None,
    *,
    include_enc: bool = True,
    enc_budget: int = 6000,
    seed: int = 1,
    verbose: bool = False,
    timeout: Optional[float] = None,
    jobs: int = 1,
) -> Table1Report:
    """Regenerate Table I over the given FSM list (default: all rows).

    ``timeout`` is a per-solver wall-clock limit in seconds; a PICOLA
    or NOVA timeout fails the row gracefully, an ENC timeout only
    marks the ENC cell.  ``jobs`` fans rows out to worker processes
    (0 = all cores) with results merged in submission order, so the
    report is identical to a serial run.
    """
    return run_experiment(
        Table1Report, TABLE1_FSMS if fsms is None else fsms,
        {
            "include_enc": include_enc, "enc_budget": enc_budget,
            "seed": seed, "timeout": timeout,
        },
        jobs=jobs, verbose=verbose,
    )
