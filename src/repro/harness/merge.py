"""``picola merge`` — combine shard results into one report.

Independent hosts each run ``picola <experiment> --shard K/N`` with a
``--resume`` checkpoint (or ``--stream`` results file); this module
recombines the N files into the exact report an unsharded run would
have produced:

* every file is **self-describing** (schema version, experiment tag,
  shard spec, the full ordered unit universe, experiment params);
  merging refuses mismatched tags, disagreeing unit universes or
  params, duplicate or missing shards, cells outside a shard's
  partition, and incomplete shards — each with a one-line diagnostic;
* the combined cells replay through the one experiment driver,
  :func:`~repro.harness.experiment.run_experiment`, with an in-memory
  :class:`~repro.runtime.Checkpoint` and the params from the files'
  meta block, so failed cells keep their ``payload_failed`` semantics
  and the rendered table is **byte-identical** to the unsharded run;
* stream files (``--from-stream``, or auto-detected) carry the same
  meta in their header line and merge the same way — a report can be
  rebuilt purely from the JSONL progress feed.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple, Union

from ..runtime import Checkpoint, CheckpointError
from .experiment import get_experiment, run_experiment
from .shard import SCHEMA_VERSION, ShardSpec, read_stream

__all__ = ["merge_files"]


@dataclass
class _ShardFile:
    """One loaded shard result file, whatever its container format."""

    path: pathlib.Path
    meta: Dict[str, Any]
    completed: Dict[str, Any]

    @property
    def experiment(self) -> str:
        return self.meta["experiment"]

    @property
    def spec(self) -> ShardSpec:
        shard = self.meta.get("shard")
        if shard is None:  # an unsharded --stream run merges as 1/1
            return ShardSpec(index=1, total=1)
        return ShardSpec.from_dict(shard)


def _load_file(
    path: Union[str, pathlib.Path], from_stream: bool
) -> _ShardFile:
    path = pathlib.Path(path)
    if not from_stream:
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise CheckpointError(
                f"unreadable shard file {path}: {exc}"
            ) from exc
        except json.JSONDecodeError:
            data = None  # multi-line: try the stream parser below
        if isinstance(data, dict) and "format" in data:
            # a checkpoint file: let Checkpoint validate format + tag
            ckpt = Checkpoint(path)
            if ckpt.meta is None:
                raise CheckpointError(
                    f"{path} is a plain checkpoint, not a shard "
                    "checkpoint (re-run with --shard K/N to stamp "
                    "the shard meta block)"
                )
            meta = dict(ckpt.meta)
            meta.setdefault("experiment", ckpt.experiment)
            if meta["experiment"] != ckpt.experiment:
                raise CheckpointError(
                    f"{path}: meta experiment {meta['experiment']!r} "
                    f"contradicts checkpoint tag {ckpt.experiment!r}"
                )
            return _ShardFile(
                path=path, meta=meta, completed=ckpt.completed
            )
    meta, completed = read_stream(path)
    if "experiment" not in meta:
        raise CheckpointError(
            f"{path}: stream header carries no experiment tag"
        )
    return _ShardFile(path=path, meta=meta, completed=completed)


def _validate(files: List[_ShardFile]) -> None:
    first = files[0]
    for f in files:
        schema = f.meta.get("schema")
        if schema != SCHEMA_VERSION:
            raise CheckpointError(
                f"{f.path}: shard schema {schema!r} is not the "
                f"supported version {SCHEMA_VERSION}"
            )
        if f.experiment != first.experiment:
            raise CheckpointError(
                f"cannot merge experiments {first.experiment!r} "
                f"({first.path}) and {f.experiment!r} ({f.path})"
            )
        if f.meta.get("units") != first.meta.get("units"):
            raise CheckpointError(
                f"{f.path} and {first.path} disagree on the unit "
                "universe; the shards come from different runs"
            )
        if f.meta.get("params") != first.meta.get("params"):
            raise CheckpointError(
                f"{f.path} and {first.path} disagree on experiment "
                "params (seeds/timeouts/options); refusing to mix"
            )
    total = first.spec.total
    seen: Dict[int, pathlib.Path] = {}
    for f in files:
        spec = f.spec
        if spec.total != total:
            raise CheckpointError(
                f"{f.path} is shard {spec} but {first.path} is "
                f"{first.spec}; shard totals must agree"
            )
        if spec.index in seen:
            raise CheckpointError(
                f"duplicate shard {spec}: {seen[spec.index]} and "
                f"{f.path}"
            )
        seen[spec.index] = f.path
    missing_shards = sorted(set(range(1, total + 1)) - set(seen))
    if missing_shards:
        raise CheckpointError(
            "missing shard file(s) "
            + ", ".join(f"{i}/{total}" for i in missing_shards)
            + " — merge needs all shards of the run"
        )
    units = first.meta.get("units") or []
    for f in files:
        expected = set(f.spec.partition(units))
        have = set(f.completed)
        foreign = sorted(have - expected)
        if foreign:
            raise CheckpointError(
                f"{f.path}: cells {foreign[:5]} are outside shard "
                f"{f.spec}'s partition — overlapping or corrupted "
                "shard files"
            )
        incomplete = sorted(
            k for k in expected if k not in have
        )
        if incomplete:
            raise CheckpointError(
                f"{f.path}: shard {f.spec} is missing "
                f"{len(incomplete)} cell(s) (e.g. {incomplete[:5]}) "
                "— resume that shard to completion first"
            )


def merge_files(
    paths: Sequence[Union[str, pathlib.Path]],
    *,
    from_stream: bool = False,
) -> Tuple[Any, str]:
    """Merge shard checkpoint/stream files into ``(report, tag)``.

    ``from_stream`` forces JSONL stream parsing; by default each
    file's container format is auto-detected (a checkpoint is one
    JSON object with a ``format`` field, a stream starts with a
    ``header`` line).
    """
    if not paths:
        raise CheckpointError("merge needs at least one shard file")
    files = [_load_file(p, from_stream) for p in paths]
    _validate(files)
    combined: Dict[str, Any] = {}
    for f in sorted(files, key=lambda f: f.spec.index):
        combined.update(f.completed)
    tag, meta = files[0].experiment, files[0].meta
    report = run_experiment(
        get_experiment(tag), meta.get("units") or [],
        dict(meta.get("params") or {}),
        checkpoint=Checkpoint.in_memory(tag, combined),
    )
    return report, tag
