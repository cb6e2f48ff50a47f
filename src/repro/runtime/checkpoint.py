"""JSON checkpoint/resume for long experiment runs.

A :class:`Checkpoint` is a small JSON file mapping completed unit keys
(benchmark names, ``seed/fsm`` cells) to their serialized results.
The harness marks each unit done as soon as it finishes, with an
atomic write (temp file + ``os.replace``), so a killed run — crash,
Ctrl-C, cluster preemption — restarts from the last completed
benchmark instead of from scratch: ``picola table1 --resume run.ckpt``.

The file carries an ``experiment`` tag; resuming a ``table2`` run from
a ``table1`` checkpoint raises :class:`CheckpointError` rather than
silently mixing result shapes.  The tag is stamped on the first write
— an untagged instance refuses to flush — and an on-disk file missing
the tag is rejected at load time, so the mismatch check can never be
bypassed by a file that simply omits the field.

Failed units are checkpointed too (their payload records a non-``ok``
``status``), so a deterministically failing benchmark is not re-run on
every ``--resume``; :func:`resumable` implements the shared
skip-or-rerun decision, including the opt-in ``--retry-failed`` path.

Sharded runs (``--shard K/N``) additionally stamp a ``meta`` object —
schema version, shard spec, the full ordered unit universe and the
experiment parameters — making the file *self-describing*: ``picola
merge`` can validate that independent shard checkpoints belong to the
same experiment run and rebuild the combined report from them.  A
resume whose freshly computed meta disagrees with the on-disk one is
refused, so two hosts cannot silently mix incompatible shard specs.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, List, Optional, Union

from .errors import CheckpointError

__all__ = ["Checkpoint", "payload_failed", "resumable"]

_FORMAT = "repro-checkpoint-v1"


class Checkpoint:
    """Durable record of completed experiment units."""

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        experiment: Optional[str] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.path: Optional[pathlib.Path] = pathlib.Path(path)
        self.experiment = experiment
        self.meta = meta
        self._completed: Dict[str, Any] = {}
        if self.path.exists():
            self._load()

    @classmethod
    def in_memory(
        cls,
        experiment: str,
        completed: Dict[str, Any],
        meta: Optional[Dict[str, Any]] = None,
    ) -> "Checkpoint":
        """A read-only checkpoint that never touches disk — the merge
        path uses it to replay combined shard results through the
        experiment driver."""
        ckpt = cls.__new__(cls)
        ckpt.path = None
        ckpt.experiment = experiment
        ckpt.meta = meta
        ckpt._completed = dict(completed)
        return ckpt

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint {self.path}: {exc}"
            ) from exc
        if not isinstance(data, dict) or data.get("format") != _FORMAT:
            raise CheckpointError(
                f"{self.path} is not a {_FORMAT} file"
            )
        recorded = data.get("experiment")
        if recorded is None:
            raise CheckpointError(
                f"{self.path} has no experiment tag; refusing to "
                "resume from an untagged checkpoint"
            )
        if (
            self.experiment is not None
            and recorded != self.experiment
        ):
            raise CheckpointError(
                f"{self.path} belongs to experiment {recorded!r}, "
                f"not {self.experiment!r}"
            )
        if self.experiment is None:
            self.experiment = recorded
        recorded_meta = data.get("meta")
        if recorded_meta is not None and not isinstance(
            recorded_meta, dict
        ):
            raise CheckpointError(f"{self.path}: bad 'meta' object")
        if self.meta is not None and recorded_meta is not None:
            if self.meta != recorded_meta:
                raise CheckpointError(
                    f"{self.path} was written for a different run "
                    "spec (shard/units/params differ); refusing to "
                    "mix incompatible shard checkpoints"
                )
        elif self.meta is not None and recorded_meta is None:
            raise CheckpointError(
                f"{self.path} is not a shard checkpoint (no meta); "
                "refusing to resume a sharded run from it"
            )
        elif recorded_meta is not None:
            self.meta = recorded_meta
        completed = data.get("completed", {})
        if not isinstance(completed, dict):
            raise CheckpointError(f"{self.path}: bad 'completed' map")
        self._completed = completed

    # -- queries -------------------------------------------------------
    @property
    def completed(self) -> Dict[str, Any]:
        return dict(self._completed)

    def keys(self) -> List[str]:
        return list(self._completed)

    def is_done(self, key: str) -> bool:
        return key in self._completed

    def get(self, key: str) -> Any:
        return self._completed[key]

    def __len__(self) -> int:
        return len(self._completed)

    # -- updates -------------------------------------------------------
    def mark_done(self, key: str, payload: Any) -> None:
        """Record one finished unit and flush atomically."""
        self._completed[key] = payload
        self._flush()

    def clear(self) -> None:
        self._completed.clear()
        if self.path is not None and self.path.exists():
            self.path.unlink()

    def _flush(self) -> None:
        if self.path is None:
            raise CheckpointError(
                "in-memory checkpoint is read-only (merge replay)"
            )
        if self.experiment is None:
            raise CheckpointError(
                f"refusing to write {self.path} without an "
                "experiment tag (pass experiment=... so later "
                "resumes can verify it)"
            )
        data = {
            "format": _FORMAT,
            "experiment": self.experiment,
            "completed": self._completed,
        }
        if self.meta is not None:
            data["meta"] = self.meta
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(data, indent=2, sort_keys=True))
        os.replace(tmp, self.path)


# ----------------------------------------------------------------------
# shared resume policy for the harness drivers
# ----------------------------------------------------------------------
def payload_failed(payload: Any) -> bool:
    """True when a checkpointed payload records a non-``ok`` outcome.

    All drivers store failures as dicts with a string ``status`` field
    (``"timeout"`` / ``"budget"`` / ``"failed"``); successful ablation
    payloads carry a *dict* under the same key (per-variant cell
    statuses), which is deliberately not a failure marker.
    """
    if not isinstance(payload, dict):
        return False
    status = payload.get("status")
    return isinstance(status, str) and status != "ok"


def resumable(
    ckpt: Optional["Checkpoint"],
    key: str,
    retry_failed: bool = False,
) -> Optional[Any]:
    """The checkpointed payload to reuse for ``key``, or ``None`` when
    the unit must (re-)run — either because it was never completed or
    because ``retry_failed`` forces re-execution of failed units."""
    if ckpt is None or not ckpt.is_done(key):
        return None
    payload = ckpt.get(key)
    if retry_failed and payload_failed(payload):
        return None
    return payload
