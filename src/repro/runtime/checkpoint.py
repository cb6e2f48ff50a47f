"""Append-only run logs: checkpoint/resume for long experiment runs.

A :class:`Checkpoint` is a JSON-lines file.  Line 1 is the header: the
log ``format``, the ``experiment`` tag and the run descriptor the
harness stamps (``shard`` spec or ``null``, the full ordered ``units``
list, the experiment ``params``).  The header is written atomically
when the file is created; after that every finished unit appends one
``{"key", "payload"}`` line and flushes it.  A killed run — crash,
Ctrl-C, cluster preemption — restarts from the last completed unit
(``picola table1 --resume run.log``), ``tail -f`` follows progress, and
``picola merge`` rebuilds the report from the logs of a sharded run.
A key logged twice reads back as its last line.

A kill during an append leaves a torn final line (no trailing
newline).  Readers drop it, and the next append first truncates the
file to its last complete line; a malformed *complete* line is an
error.

Resume policy: the experiment tag is always checked, so resuming a
``table2`` run from a ``table1`` log raises :class:`CheckpointError`
rather than silently mixing result shapes, and a log without a tag is
refused.  The run descriptor is checked only when the run or the log
is sharded: an unsharded run still resumes with different knobs, but
two hosts cannot mix incompatible shard specs.

Failed units are logged too (their payload records a non-``ok``
``status``), so a deterministically failing benchmark is not re-run on
every ``--resume``; :func:`resumable` implements the shared
skip-or-rerun decision, including the opt-in ``--retry-failed`` path.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, List, Optional, Union

from .errors import CheckpointError

__all__ = ["Checkpoint", "payload_failed", "resumable"]

#: the header's ``format`` field; bump when the log or payload shape changes
_FORMAT = "repro-run-log-v2"


class Checkpoint:
    """Durable, append-only record of completed experiment units.

    ``meta`` is the run descriptor (``shard``/``units``/``params``)
    written into a new log's header and checked against an existing
    one's.  A tagged instance creates its file at once, so even a run
    that finishes no unit leaves a header behind.
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        experiment: Optional[str] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.path: Optional[pathlib.Path] = pathlib.Path(path)
        self.experiment = experiment
        self._header = dict(
            {"format": _FORMAT, "experiment": experiment}, **(meta or {})
        )
        self._completed: Dict[str, Any] = {}
        self._end = 0  # byte length of the header + complete lines
        if self.path.exists():
            self._load(meta)
        elif experiment is not None:
            self._create()

    @classmethod
    def in_memory(
        cls, experiment: str, completed: Dict[str, Any]
    ) -> "Checkpoint":
        """A read-only checkpoint that never touches disk — the merge
        path uses it to replay combined shard results through the
        experiment driver."""
        ckpt = cls.__new__(cls)
        ckpt.path = None
        ckpt.experiment = experiment
        ckpt._header = {"format": _FORMAT, "experiment": experiment}
        ckpt._completed = dict(completed)
        return ckpt

    def _create(self) -> None:
        data = (json.dumps(self._header) + "\n").encode()
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(data)
        os.replace(tmp, self.path)
        self._end = len(data)

    def _load(self, meta: Optional[Dict[str, Any]]) -> None:
        try:
            data = self.path.read_bytes()
        except OSError as exc:
            raise CheckpointError(
                f"unreadable checkpoint {self.path}: {exc}"
            ) from exc
        *lines, torn = data.split(b"\n")
        try:
            header = json.loads(lines[0]) if lines else None
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("format") != _FORMAT:
            raise CheckpointError(
                f"unreadable checkpoint {self.path}: line 1 is not a "
                f"{_FORMAT} header"
            )
        recorded = header.get("experiment")
        if recorded is None:
            raise CheckpointError(
                f"{self.path} has no experiment tag; refusing to "
                "resume from an untagged checkpoint"
            )
        if self.experiment is not None and recorded != self.experiment:
            raise CheckpointError(
                f"{self.path} belongs to experiment {recorded!r}, "
                f"not {self.experiment!r}"
            )
        self.experiment = recorded
        if meta is not None and (
            meta.get("shard") is not None
            or header.get("shard") is not None
        ):
            recorded_meta = {
                k: v for k, v in header.items()
                if k not in ("format", "experiment")
            }
            if meta != recorded_meta:
                raise CheckpointError(
                    f"{self.path} was written for a different run "
                    "spec (shard/units/params differ); refusing to "
                    "mix incompatible shard logs"
                )
        self._header = header
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                entry = json.loads(line)
                self._completed[entry["key"]] = entry["payload"]
            except (ValueError, TypeError, KeyError) as exc:
                raise CheckpointError(
                    f"{self.path}:{lineno}: malformed log line: {exc}"
                ) from exc
        self._end = len(data) - len(torn)

    # -- queries -------------------------------------------------------
    @property
    def meta(self) -> Optional[Dict[str, Any]]:
        """The run descriptor (``experiment``, ``shard``, ``units``,
        ``params``) of a sharded log; ``None`` for an unsharded one."""
        if self._header.get("shard") is None:
            return None
        return {k: v for k, v in self._header.items() if k != "format"}

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
        """Record one finished unit: append its line and flush it."""
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
        line = (json.dumps({"key": key, "payload": payload}) + "\n").encode()
        with open(self.path, "ab") as handle:
            handle.truncate(self._end)  # a torn tail from a killed append
            handle.write(line)
        self._end += len(line)
        self._completed[key] = payload


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
