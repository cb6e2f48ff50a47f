"""The one experiment driver behind every ``picola`` experiment.

Table I/II, the ablation and the seed sweep are each a list of
independent *units* (a benchmark row, a ``seed/fsm`` cell).
:func:`run_experiment` owns their shared loop: it runs the units over
the process pool, folds each unit's *payload* (the JSON-safe dict it
produced, or its failure record) into the report in key order, and
prints progress.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Type

from ..runtime.isolation import Outcome, failure_reason
from .parallel import Unit, run_units

__all__ = ["Experiment", "run_experiment", "payload_failed"]


def payload_failed(payload: Any) -> bool:
    """True when a unit payload records a non-``ok`` outcome.

    Every experiment stores failures as dicts with a string ``status``
    field (``"timeout"`` / ``"budget"`` / ``"failed"``); successful
    ablation payloads carry a *dict* under the same key (per-variant
    cell statuses), which is deliberately not a failure marker.
    """
    if not isinstance(payload, dict):
        return False
    status = payload.get("status")
    return isinstance(status, str) and status != "ok"


class Experiment:
    """Base class of the experiment reports; a subclass defines one
    experiment: ``tag``, the module-level ``unit(key, **params)`` that
    computes a payload in a pool worker, ``fold(key, payload)`` (may
    return a line to print after the unit's progress line),
    ``to_dict()`` for ``--json`` and ``n_failed`` for the exit code.
    """

    tag = ""
    unit: Callable[..., Any]

    @classmethod
    def start(cls, params: Dict[str, Any], keys: List[str]) -> "Experiment":
        """The empty report of a run over ``keys``."""
        return cls()

    @staticmethod
    def failure(key: str, outcome: Outcome) -> Dict[str, Any]:
        """The payload of a unit that failed its fault boundary."""
        return {
            "status": outcome.status,
            "reason": outcome.reason,
            "error": outcome.error,
        }

    @staticmethod
    def progress(key: str, payload: Any) -> Optional[str]:
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
        payload = (
            outcome.value if outcome.ok
            else experiment.failure(key, outcome)
        )
        after = report.fold(key, payload)
        if not verbose:
            continue
        if payload_failed(payload):
            reason = failure_reason(payload["status"], payload.get("error"))
            line = f"{key}: FAILED ({reason})"
        else:
            line = experiment.progress(key, payload)
        for text in (line, after):
            if text is not None:
                print(text, flush=True)
    return report
