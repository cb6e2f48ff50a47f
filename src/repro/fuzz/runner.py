"""The fuzz campaign driver behind ``picola fuzz``.

A campaign is ``max_examples`` cases spread round-robin over the
selected generator families, each run through the
:func:`~repro.fuzz.oracle.run_case` oracle under a per-case budget.
Cases fan out over the parallel experiment engine (``--jobs``), with
results merged deterministically in submission order, so a campaign's
report is a pure function of ``(seed, config)`` — two runs produce
identical classifications and JSON modulo wall-clock seconds.

Fault-hardening mode (on by default) re-runs each case with
deterministic faults armed at the budget and oracle seams
(``solver.solve``, ``fuzz.verify``) and asserts the failure stays
*classified* — an armed timeout must classify as TIMEOUT, an armed
:class:`~repro.runtime.ReproError` as VIOLATION, and nothing may
escape the oracle.

Findings (VIOLATION / CRASH / failed hardening) are distilled with
:func:`~repro.fuzz.corpus.minimize_case` and written to the corpus
directory when one is configured.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..harness.experiment import Experiment, run_experiment
from ..obs import resolve_tracer
from ..runtime import (
    InvalidSpecError,
    ReproError,
    SolverTimeout,
    faults,
)
from ..runtime.isolation import Outcome
from ..solvers import get_solver, list_solvers
from .corpus import entry_for_finding, minimize_case, save_entry
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
    OK,
    TIMEOUT,
    VIOLATION,
    CaseOutcome,
    run_case,
)

__all__ = ["FuzzConfig", "FuzzReport", "run_fuzz"]

#: what each armed seam must classify as in the hardening pass
_HARDEN_EXPECT: Tuple[Tuple[str, str, Any, Tuple[str, ...]], ...] = (
    ("solver.solve", "timeout", SolverTimeout, (TIMEOUT,)),
    ("fuzz.verify", "error", ReproError, (VIOLATION,)),
)

#: a case-seed stride keeps per-family streams disjoint across cases
_SEED_STRIDE = 10007


@dataclass
class FuzzConfig:
    """Everything a campaign needs; validated by :meth:`check`."""

    solver: str = "picola"
    generators: Sequence[str] = ()
    max_examples: int = 100
    seed: int = 0
    scale: int = 24
    timeout: Optional[float] = 10.0
    jobs: int = 1
    harden: bool = True
    corpus: Optional[str] = None
    cosim_steps: int = 128
    #: ``"K/N"`` — run only this host's slice of the case list
    shard: Optional[str] = None
    #: JSONL results file, one line per classified case
    stream: Optional[str] = None

    def resolved_generators(self) -> Tuple[str, ...]:
        return tuple(self.generators) or list_generators()

    def params(self) -> Dict[str, Any]:
        """The campaign identity for shard/stream meta blocks —
        everything that shapes the case list and its classification
        (not the host-local knobs: jobs, corpus, shard, stream)."""
        data = {
            k: v for k, v in asdict(self).items()
            if k not in ("jobs", "corpus", "shard", "stream")
        }
        data["generators"] = list(self.resolved_generators())
        return data

    def check(self) -> None:
        """Raise :class:`InvalidSpecError` on a bad configuration."""
        if self.max_examples < 1:
            raise InvalidSpecError("max-examples must be >= 1")
        if self.scale < 2:
            raise InvalidSpecError("scale must be >= 2")
        if self.solver not in list_solvers():
            raise InvalidSpecError(
                f"unknown solver {self.solver!r}; "
                f"available: {list_solvers()}"
            )
        specs = [get_generator(g) for g in self.resolved_generators()]
        get_solver(self.solver)  # consistency with the registry menu
        if self.solver == "mustang":
            lacking = [s.name for s in specs if not s.makes_fsm]
            if lacking:
                raise InvalidSpecError(
                    f"solver 'mustang' needs FSM-backed cases; "
                    f"generators {lacking} produce none "
                    "(use --generator fsm)"
                )


# ----------------------------------------------------------------------
# worker side (module-level: picklable for the process pool)
# ----------------------------------------------------------------------
def _harden_case(
    case: FuzzCase, config: FuzzConfig, outcome: CaseOutcome
) -> None:
    """Re-run ``case`` with faults armed at the seams; annotate."""
    problems: List[str] = []
    for site, _kind, exc, expected in _HARDEN_EXPECT:
        # a seam deeper than where the baseline run already stopped
        # (infeasible / out of budget before verification) never trips,
        # so the baseline classification is also acceptable there
        if outcome.classification not in (OK, VIOLATION):
            expected = expected + (outcome.classification,)
        with faults.inject(site, exc):
            try:
                hardened = run_case(
                    case, config.solver,
                    timeout=config.timeout,
                    oracle_seed=config.seed,
                    cosim_steps=config.cosim_steps,
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as hexc:  # repro: noqa[RPA003] -- an exception escaping the oracle under injection is exactly the hardening failure being hunted
                problems.append(
                    f"{site}: escaped the oracle with "
                    f"{type(hexc).__name__}: {hexc}"
                )
                continue
        if hardened.classification not in expected:
            problems.append(
                f"{site}: armed {exc.__name__} classified as "
                f"{hardened.classification}, expected "
                f"{'/'.join(expected)}"
            )
    outcome.hardened = not problems
    outcome.hardened_detail = "; ".join(problems)


def _finding(
    key: str, solver: str, classification: str, detail: str,
    seconds: float = 0.0,
) -> Dict[str, Any]:
    """The payload of a case the oracle never got to classify."""
    family, case_seed = key.rsplit(":", 1)
    return CaseOutcome(
        key=key, family=family, seed=int(case_seed), solver=solver,
        classification=classification, detail=detail, seconds=seconds,
    ).to_dict()


def _fuzz_unit(key: str, **params: Any) -> Dict[str, Any]:
    """Generate + classify one case (runs inside pool workers)."""
    config = FuzzConfig(**params)
    family, case_seed = key.rsplit(":", 1)
    try:
        case = generate_case(family, int(case_seed), config.scale)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:  # repro: noqa[RPA003] -- a generator crash is a campaign finding, not a harness abort
        return _finding(
            key, config.solver, CRASH,
            f"generator: {type(exc).__name__}: {exc}",
        )
    outcome = run_case(
        case, config.solver,
        timeout=config.timeout,
        oracle_seed=config.seed,
        cosim_steps=config.cosim_steps,
    )
    if config.harden:
        _harden_case(case, config, outcome)
    if outcome.is_finding:
        outcome.case_data = case.to_dict()
    return outcome.to_dict()


@dataclass
class FuzzReport(Experiment):
    """Campaign summary: per-case outcomes plus aggregate counts."""

    config: FuzzConfig
    outcomes: List[CaseOutcome] = field(default_factory=list)
    corpus_files: List[str] = field(default_factory=list)

    tag = "fuzz"
    unit = staticmethod(_fuzz_unit)

    @classmethod
    def start(cls, params: Dict[str, Any], keys: List[str]) -> "FuzzReport":
        return cls(config=FuzzConfig(**params))

    @staticmethod
    def failure(key: str, result: Outcome, params: Dict) -> Dict[str, Any]:
        # the oracle never raises, so a failed unit means the harness
        # itself broke in the worker — a finding
        timed_out = result.status in ("timeout", "budget")
        return _finding(
            key, params["solver"], TIMEOUT if timed_out else CRASH,
            f"harness: {result.error}", result.seconds,
        )

    @staticmethod
    def progress(key: str, payload: Dict[str, Any]) -> Optional[str]:
        outcome = CaseOutcome.from_dict(payload)
        return "  " + outcome.line() if outcome.is_finding else None

    def fold(self, key: str, payload: Dict[str, Any]) -> None:
        self.outcomes.append(CaseOutcome.from_dict(payload))

    @property
    def counts(self) -> Dict[str, int]:
        counts = {c: 0 for c in CLASSIFICATIONS}
        for outcome in self.outcomes:
            counts[outcome.classification] += 1
        return counts

    @property
    def findings(self) -> List[CaseOutcome]:
        return [o for o in self.outcomes if o.is_finding]

    @property
    def n_hardening_failures(self) -> int:
        return sum(1 for o in self.outcomes if o.hardened is False)

    @property
    def n_findings(self) -> int:
        return len(self.findings)

    #: findings are what fails a campaign's exit code
    n_failed = n_findings

    def render(self) -> str:
        lines = [
            f"fuzz: solver={self.config.solver} "
            f"seed={self.config.seed} "
            f"examples={len(self.outcomes)} "
            f"generators={','.join(self.config.resolved_generators())}"
        ]
        for outcome in self.findings:
            lines.append("  " + outcome.line())
        counts = self.counts
        summary = "  ".join(
            f"{name}={counts[name]}" for name in CLASSIFICATIONS
        )
        hardened = sum(1 for o in self.outcomes if o.hardened)
        if any(o.hardened is not None for o in self.outcomes):
            summary += (
                f"  hardened={hardened}/"
                f"{sum(1 for o in self.outcomes if o.hardened is not None)}"
            )
        lines.append(summary)
        if self.corpus_files:
            for path in self.corpus_files:
                lines.append(f"  wrote {path}")
        lines.append(
            f"{self.n_findings} finding(s)"
            if self.n_findings
            else "no findings"
        )
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "solver": self.config.solver,
            "seed": self.config.seed,
            "scale": self.config.scale,
            "generators": list(self.config.resolved_generators()),
            "counts": self.counts,
            "n_findings": self.n_findings,
            "hardening_failures": self.n_hardening_failures,
            "corpus_files": [
                path.replace("\\", "/") for path in self.corpus_files
            ],
            "cases": [o.to_dict() for o in self.outcomes],
        }

    def to_dict(self) -> Dict[str, Any]:
        return dict({"experiment": "fuzz"}, **self.as_dict())


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def _distill(
    report: FuzzReport, tracer, verbose: bool
) -> None:
    """Minimize the findings and persist them to the corpus."""
    config = report.config
    if config.corpus is None:
        return
    for outcome in report.findings:
        if outcome.case_data is None:
            continue
        case = FuzzCase.from_dict(outcome.case_data)
        wanted = outcome.classification

        def reproduces(candidate: FuzzCase) -> bool:
            check = run_case(
                candidate, config.solver,
                timeout=config.timeout,
                oracle_seed=config.seed,
                cosim_steps=config.cosim_steps,
            )
            return check.classification == wanted

        with tracer.span("fuzz/distill", key=outcome.key):
            if wanted in FINDINGS:
                case = minimize_case(case, reproduces)
            entry = entry_for_finding(outcome, case)
            path = save_entry(config.corpus, entry)
        report.corpus_files.append(path)
        if verbose:
            print(f"  distilled {outcome.key} -> {path}")


def run_fuzz(
    config: FuzzConfig,
    *,
    tracer=None,
    verbose: bool = False,
) -> FuzzReport:
    """Run one campaign; deterministic for a fixed config.

    With ``config.shard`` (``K/N``) only this host's deterministic
    slice of the case list runs; ``config.stream`` appends one JSON
    line per classified case so progress can be tailed and ``picola
    merge --from-stream`` can rebuild the combined campaign report.
    """
    config.check()
    tracer = resolve_tracer(tracer)
    families = config.resolved_generators()
    keys = [
        f"{families[i % len(families)]}:"
        f"{config.seed + _SEED_STRIDE * (i // len(families))}"
        for i in range(config.max_examples)
    ]
    with tracer.span(
        "fuzz/campaign", solver=config.solver, seed=config.seed,
        examples=config.max_examples,
    ):
        report = run_experiment(
            FuzzReport, keys, config.params(), jobs=config.jobs,
            shard=config.shard, stream=config.stream, verbose=verbose,
            tracer=tracer,
        )
        report.config = config  # with the host-local knobs (corpus)
        _distill(report, tracer, verbose)
    return report
