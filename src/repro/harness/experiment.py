"""The one experiment driver behind every ``picola`` experiment.

Table I/II, the ablation and the seed sweep are each a list of
independent *units* (a benchmark row, a ``seed/fsm`` cell).  :func:`run_experiment` owns their shared loop: the shard
slice, the ``--resume`` run log, the process pool, and the in-order
walk that folds each unit's *payload* (the JSON-safe dict it produced,
fresh, resumed or merged alike) into the report.
"""

from __future__ import annotations

import importlib
import pathlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Type, Union

from ..runtime import Checkpoint, CheckpointError
from ..runtime.checkpoint import payload_failed, resumable
from ..runtime.isolation import Outcome, failure_reason
from .parallel import Unit, run_units
from .shard import ShardSpec, build_meta, resolve_shard

__all__ = ["Experiment", "run_experiment", "get_experiment"]

#: tag -> report class, imported on first use (``merge`` loads only
#: the experiment its logs name)
_EXPERIMENTS = {
    "table1": ("repro.harness.table1", "Table1Report"),
    "table2": ("repro.harness.table2", "Table2Report"),
    "ablation": ("repro.harness.ablation", "AblationReport"),
    "sweep": ("repro.harness.sweep", "SeedSweepReport"),
}


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
        """The empty report of a run over ``keys`` (this shard's)."""
        return cls()

    @staticmethod
    def failure(key: str, outcome: Outcome, params: Dict) -> Dict[str, Any]:
        """The payload of a unit that failed its fault boundary."""
        return {
            "status": outcome.status,
            "reason": outcome.reason,
            "error": outcome.error,
        }

    @staticmethod
    def progress(key: str, payload: Any) -> Optional[str]:
        """The progress line of a freshly computed, successful unit."""
        return None


def get_experiment(tag: str) -> Type[Experiment]:
    """The report class of experiment ``tag`` (loaded on demand)."""
    if tag not in _EXPERIMENTS:
        raise CheckpointError(
            f"cannot rebuild a report for experiment {tag!r}"
        )
    module, name = _EXPERIMENTS[tag]
    return getattr(importlib.import_module(module), name)


def run_experiment(
    experiment: Type[Experiment],
    keys: Sequence[str],
    params: Dict[str, Any],
    *,
    checkpoint: Optional[Union[str, pathlib.Path, Checkpoint]] = None,
    jobs: int = 1,
    retry_failed: bool = False,
    shard: Optional[Union[str, ShardSpec]] = None,
    verbose: bool = False,
    tracer: Optional[Any] = None,
) -> Any:
    """Run ``experiment`` (a report class) over its ordered unit
    ``keys``; the filled report.

    ``params`` go to every unit and into the run log's header, so a
    merge can rebuild the report from the shard logs alone.  Logged
    units (failed ones too, unless ``retry_failed``) are resumed; the
    rest run over ``jobs`` workers and fold back in key order.
    """
    spec = resolve_shard(shard)
    keys = list(keys)
    owned = spec.partition(keys) if spec is not None else keys
    ckpt = checkpoint
    if checkpoint is not None and not isinstance(checkpoint, Checkpoint):
        ckpt = Checkpoint(
            checkpoint, experiment=experiment.tag,
            meta=build_meta(keys, params, spec),
        )
    report = experiment.start(params, owned)
    resumed = {key: resumable(ckpt, key, retry_failed) for key in owned}
    outcomes = run_units(
        [
            Unit(key=key, fn=experiment.unit, args=(key,), kwargs=params)
            for key in owned if resumed[key] is None
        ],
        jobs=jobs, tracer=tracer,
    )
    for key in owned:
        payload = resumed[key]
        fresh = payload is None
        if fresh:
            outcome = next(outcomes)
            payload = (
                outcome.value if outcome.ok
                else experiment.failure(key, outcome, params)
            )
            if ckpt is not None:
                ckpt.mark_done(key, payload)
        after = report.fold(key, payload)
        if not verbose:
            continue
        if payload_failed(payload):
            reason = failure_reason(
                payload["status"], payload.get("error")
            )
            suffix = "" if fresh else ", resumed from checkpoint"
            line = f"{key}: FAILED ({reason}{suffix})"
        elif not fresh:
            line = f"{key}: resumed from checkpoint"
        else:
            line = experiment.progress(key, payload)
        for text in (line, after):
            if text is not None:
                print(text, flush=True)
    return report
