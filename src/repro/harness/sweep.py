"""Seed-stability sweep: are the conclusions generator-independent?

The benchmark machines are seeded synthetic stand-ins (DESIGN.md §2),
so a fair question is whether Table I's conclusions depend on the
particular draw.  ``run_seed_sweep`` regenerates the quick Table I
comparison under several FSM-generator seeds and reports, per seed,
the PICOLA/NOVA totals and win-loss record, plus aggregate mean and
spread — the reproduction's robustness check.

Each ``seed/fsm`` cell is Table I's row (without ENC) for that
generator seed, run behind the :mod:`repro.runtime` fault boundary,
so a single pathological draw degrades to a recorded failure instead
of sinking the whole sweep.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..fsm import BENCHMARKS
from ..runtime import faults
from ..runtime.isolation import Outcome
from .experiment import Experiment, run_experiment
from .report import render_table
from .table1 import QUICK_FSMS, Table1Row, _table1_row

__all__ = ["SWEEP_SEEDS", "SeedSweepReport", "run_seed_sweep"]

#: the FSM-generator seeds of the documented sweep (EXPERIMENTS.md)
SWEEP_SEEDS = (0, 1, 2, 3, 4)


@dataclass
class SeedOutcome:
    seed: int
    total_picola: int
    total_nova: int
    picola_wins: int
    nova_wins: int
    ties: int

    @property
    def nova_overhead(self) -> float:
        if not self.total_picola:
            return 0.0
        return (
            self.total_nova - self.total_picola
        ) / self.total_picola


def _split(key: str) -> Tuple[int, str]:
    seed, name = key.split("/", 1)
    return int(seed), name


def _sweep_cell(
    key: str, *, nova_seed: int, timeout: Optional[float]
) -> Table1Row:
    """One ``seed/fsm`` comparison: Table I's row of ``fsm`` drawn
    with generator seed ``seed``, without ENC (runs inside the fault
    boundary; a ``table1.row`` fault on ``fsm`` trips here too)."""
    faults.trip("sweep.benchmark", key=key)
    seed, name = _split(key)
    return _table1_row(
        name, include_enc=False, enc_budget=0, seed=nova_seed,
        timeout=timeout, fsm_seed=seed,
    )


@dataclass
class SeedSweepReport(Experiment):
    fsms: List[str]
    outcomes: List[SeedOutcome] = field(default_factory=list)
    #: benchmarks that failed, as (seed, fsm) -> reason
    failures: Dict[Tuple[int, str], str] = field(default_factory=dict)
    #: seeds excluded entirely because no cell of theirs completed —
    #: aggregating them would inject fake 0-cube totals (and a fake
    #: 0.0 overhead) into the mean/stddev statistics
    skipped_seeds: List[int] = field(default_factory=list)
    #: while the sweep runs: cells still to fold per seed, and the
    #: (picola, nova) cubes of each seed's completed cells so far
    pending: Counter = field(default_factory=Counter, repr=False)
    completed: Dict[int, list] = field(default_factory=dict, repr=False)

    unit = staticmethod(_sweep_cell)

    @classmethod
    def start(cls, params: Dict, keys: List[str]) -> "SeedSweepReport":
        cells = [_split(key) for key in keys]
        return cls(
            fsms=list(dict.fromkeys(name for _, name in cells)),
            pending=Counter(seed for seed, _ in cells),
        )

    def fold(self, key: str, outcome: Outcome) -> Optional[str]:
        """Add one cell; once a seed's last cell is in, aggregate it."""
        seed, name = _split(key)
        cells = self.completed.setdefault(seed, [])
        if outcome.ok:
            row = outcome.value
            cells.append((row.cubes_picola, row.cubes_nova))
        else:
            self.failures[(seed, name)] = outcome.reason
        self.pending[seed] -= 1
        if self.pending[seed]:
            return None
        if not cells:
            # every cell of this seed failed: an all-zero SeedOutcome
            # would smuggle a fake 0.0 nova_overhead into
            # mean_overhead()/overhead_stddev()
            self.skipped_seeds.append(seed)
            return f"seed {seed}: skipped (no completed cells)"
        outcome = SeedOutcome(
            seed=seed,
            total_picola=sum(p for p, _ in cells),
            total_nova=sum(n for _, n in cells),
            picola_wins=sum(p < n for p, n in cells),
            nova_wins=sum(n < p for p, n in cells),
            ties=sum(p == n for p, n in cells),
        )
        self.outcomes.append(outcome)
        return (
            f"seed {seed}: picola={outcome.total_picola} "
            f"nova={outcome.total_nova}"
        )

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    def mean_overhead(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.nova_overhead for o in self.outcomes) / len(
            self.outcomes
        )

    def overhead_stddev(self) -> float:
        n = len(self.outcomes)
        if n < 2:
            return 0.0
        mean = self.mean_overhead()
        var = sum(
            (o.nova_overhead - mean) ** 2 for o in self.outcomes
        ) / (n - 1)
        return math.sqrt(var)

    def picola_never_behind(self) -> bool:
        return all(
            o.total_picola <= o.total_nova for o in self.outcomes
        )

    def render(self) -> str:
        rows = [
            [
                f"seed {o.seed}",
                o.total_picola,
                o.total_nova,
                f"{100 * o.nova_overhead:.1f}%",
                o.picola_wins,
                o.nova_wins,
                o.ties,
            ]
            for o in self.outcomes
        ]
        table = render_table(
            [
                "run", "PICOLA", "NOVA", "overhead",
                "P-wins", "N-wins", "ties",
            ],
            rows,
            title="Seed sweep - Table I stability across FSM draws",
        )
        summary = (
            f"\nmean NOVA overhead {100 * self.mean_overhead():.1f}% "
            f"(stddev {100 * self.overhead_stddev():.1f} points) over "
            f"{len(self.outcomes)} seeds"
        )
        if self.failures:
            failed = ", ".join(
                f"seed {seed}/{fsm} ({reason})"
                for (seed, fsm), reason in self.failures.items()
            )
            summary += (
                f"\n{self.n_failed} benchmark(s) failed and were "
                f"excluded: {failed}"
            )
        if self.skipped_seeds:
            skipped = ", ".join(
                f"seed {seed}" for seed in self.skipped_seeds
            )
            summary += (
                f"\n{len(self.skipped_seeds)} seed(s) excluded from "
                f"the aggregate (no completed cells): {skipped}"
            )
        return table + summary

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": "sweep",
            "fsms": list(self.fsms),
            "outcomes": [
                dict(asdict(o), nova_overhead=o.nova_overhead)
                for o in self.outcomes
            ],
            "failures": {
                f"{seed}/{fsm}": reason
                for (seed, fsm), reason in self.failures.items()
            },
            "skipped_seeds": list(self.skipped_seeds),
            "summary": {
                "mean_overhead": self.mean_overhead(),
                "overhead_stddev": self.overhead_stddev(),
                "failed": self.n_failed,
                "skipped_seeds": len(self.skipped_seeds),
            },
        }


def run_seed_sweep(
    fsms: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = SWEEP_SEEDS,
    *,
    nova_seed: int = 1,
    verbose: bool = False,
    timeout: Optional[float] = None,
    jobs: int = 1,
) -> SeedSweepReport:
    """Re-run the quick Table I comparison for several FSM draws.

    ``jobs`` fans the independent ``seed/fsm`` cells out to worker
    processes; results merge in submission order, so totals and the
    rendered table match a serial run exactly.

    A seed none of whose cells completed is *excluded* from the
    outcome rows (and listed in the summary) instead of contributing
    fake zero totals to the mean/stddev statistics.
    """
    if fsms is None:
        fsms = [f for f in QUICK_FSMS if BENCHMARKS[f].source != "file"]
    return run_experiment(
        SeedSweepReport, [f"{seed}/{name}" for seed in seeds for name in fsms],
        {"nova_seed": nova_seed, "timeout": timeout},
        jobs=jobs, verbose=verbose,
    )
