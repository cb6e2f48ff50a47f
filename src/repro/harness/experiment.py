"""The one experiment driver behind every ``picola`` experiment.

Table I/II, the ablation and the seed sweep are each a list of
independent *units* (a benchmark row, a ``seed/fsm`` cell).
:func:`run_experiment` owns their shared loop: it runs the units over
the process pool, folds each unit's :class:`~repro.runtime.isolation.Outcome`
(its row or cells, or its failure) into the report in key order, and
prints progress.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Type

from .parallel import Unit, run_units

__all__ = ["Experiment", "run_experiment"]


class Experiment:
    """Base class of the experiment reports; a subclass defines one
    experiment: the module-level ``unit(key, **params)`` that computes
    a unit's row or cells in a pool worker, ``fold(key, outcome)``
    (may return a line to print after the unit's progress line),
    ``to_dict()`` for ``--json`` and ``n_failed`` for the exit code.
    """

    unit: Callable[..., Any]

    @classmethod
    def start(cls, params: Dict[str, Any], keys: List[str]) -> "Experiment":
        """The empty report of a run over ``keys``."""
        return cls()

    @staticmethod
    def progress(key: str, value: Any) -> Optional[str]:
        """The progress line of a successful unit."""
        return None


def run_experiment(
    experiment: Type[Experiment],
    keys: Sequence[str],
    params: Dict[str, Any],
    *,
    jobs: int = 1,
    verbose: bool = False,
    tracer: Optional[Any] = None,
) -> Any:
    """Run ``experiment`` (a report class) over its ordered unit
    ``keys``; the filled report.

    ``params`` go to every unit; the units run over ``jobs`` workers
    and fold back in key order, so the report matches a serial run.
    """
    keys = list(keys)
    report = experiment.start(params, keys)
    outcomes = run_units(
        [
            Unit(key=key, fn=experiment.unit, args=(key,), kwargs=params)
            for key in keys
        ],
        jobs=jobs, tracer=tracer,
    )
    for key, outcome in zip(keys, outcomes):
        after = report.fold(key, outcome)
        if not verbose:
            continue
        if outcome.ok:
            line = experiment.progress(key, outcome.value)
        else:
            line = f"{key}: FAILED ({outcome.reason})"
        for text in (line, after):
            if text is not None:
                print(text, flush=True)
    return report
