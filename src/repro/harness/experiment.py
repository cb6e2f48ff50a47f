"""The one experiment driver behind every ``picola`` experiment.

Table I/II, the ablation, the seed sweep and the fuzz campaign are each
a list of independent *units* (a benchmark row, a ``seed/fsm`` cell, a
fuzz case).  :func:`run_experiment` owns their shared loop: shard and
meta block, checkpoint and resume, ``--stream``, the process pool, and
the in-order walk that folds each unit's *payload* (the JSON-safe dict
it produced, fresh, resumed or merged alike) into the report.
"""

from __future__ import annotations

import importlib
import pathlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Type, Union

from ..runtime import Checkpoint, CheckpointError
from ..runtime.checkpoint import payload_failed, resumable
from ..runtime.isolation import Outcome, failure_reason
from .parallel import Unit, run_units
from .shard import ShardSpec, StreamWriter, build_meta, resolve_shard

__all__ = ["Experiment", "run_experiment", "get_experiment"]

#: tag -> report class, imported on first use (keeps the fuzzer lazy)
_EXPERIMENTS = {
    "table1": ("repro.harness.table1", "Table1Report"),
    "table2": ("repro.harness.table2", "Table2Report"),
    "ablation": ("repro.harness.ablation", "AblationReport"),
    "sweep": ("repro.harness.sweep", "SeedSweepReport"),
    "fuzz": ("repro.fuzz.runner", "FuzzReport"),
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
    stream: Optional[Union[str, pathlib.Path]] = None,
    verbose: bool = False,
    tracer: Optional[Any] = None,
) -> Any:
    """Run ``experiment`` (a report class) over its ordered unit
    ``keys``; the filled report.

    ``params`` go to every unit and into shard/stream meta blocks, so
    a merge can rebuild the report from the files alone.  Checkpointed
    units (failed ones too, unless ``retry_failed``) are resumed; the
    rest run over ``jobs`` workers and fold back in key order.
    """
    spec = resolve_shard(shard)
    keys = list(keys)
    meta: Optional[Dict[str, Any]] = None
    if spec is not None or stream is not None:
        meta = build_meta(experiment.tag, keys, params, spec)
    owned = spec.partition(keys) if spec is not None else keys
    ckpt = checkpoint
    if checkpoint is not None and not isinstance(checkpoint, Checkpoint):
        ckpt = Checkpoint(
            checkpoint, experiment=experiment.tag,
            meta=meta if spec is not None else None,
        )
    writer = StreamWriter(stream, meta) if stream is not None else None
    report = experiment.start(params, owned)
    resumed = {key: resumable(ckpt, key, retry_failed) for key in owned}
    outcomes = run_units(
        [
            Unit(key=key, fn=experiment.unit, args=(key,), kwargs=params)
            for key in owned if resumed[key] is None
        ],
        jobs=jobs, tracer=tracer,
    )
    try:
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
            if writer is not None:
                writer.emit_cell(key, payload, resumed=not fresh)
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
    finally:
        if writer is not None:
            writer.close()
    return report
