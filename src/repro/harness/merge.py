"""``picola merge`` — combine shard run logs into one report.

Independent hosts each run ``picola <experiment> --shard K/N`` with a
``--resume`` run log; this module recombines the N logs into the exact
report an unsharded run would have produced:

* every log is **self-describing** (format, experiment tag, shard
  spec, the full ordered unit universe, experiment params in its
  header); merging refuses mismatched tags, disagreeing unit universes
  or params, duplicate or missing shards, cells outside a shard's
  partition, and incomplete shards — each with a one-line diagnostic;
* the combined cells replay through the one experiment driver,
  :func:`~repro.harness.experiment.run_experiment`, with an in-memory
  :class:`~repro.runtime.Checkpoint` and the params from the logs'
  headers, so failed cells keep their ``payload_failed`` semantics
  and the rendered table is **byte-identical** to the unsharded run.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, List, Sequence, Tuple, Union

from ..runtime import Checkpoint, CheckpointError
from .experiment import get_experiment, run_experiment
from .shard import ShardSpec

__all__ = ["merge_files"]


def _load_file(path: Union[str, pathlib.Path]) -> Checkpoint:
    path = pathlib.Path(path)
    if not path.is_file():
        raise CheckpointError(f"unreadable shard file {path}: no such file")
    ckpt = Checkpoint(path)
    if ckpt.meta is None:
        raise CheckpointError(
            f"{path} is a plain checkpoint, not a shard checkpoint "
            "(re-run with --shard K/N to stamp the shard in its header)"
        )
    return ckpt


def _spec(ckpt: Checkpoint) -> ShardSpec:
    return ShardSpec.from_dict(ckpt.meta["shard"])


def _validate(files: List[Checkpoint]) -> None:
    first = files[0]
    for f in files:
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
    total = _spec(first).total
    seen: Dict[int, pathlib.Path] = {}
    for f in files:
        spec = _spec(f)
        if spec.total != total:
            raise CheckpointError(
                f"{f.path} is shard {spec} but {first.path} is "
                f"{_spec(first)}; shard totals must agree"
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
        expected = set(_spec(f).partition(units))
        have = set(f.keys())
        foreign = sorted(have - expected)
        if foreign:
            raise CheckpointError(
                f"{f.path}: cells {foreign[:5]} are outside shard "
                f"{_spec(f)}'s partition — overlapping or corrupted "
                "shard files"
            )
        incomplete = sorted(
            k for k in expected if k not in have
        )
        if incomplete:
            raise CheckpointError(
                f"{f.path}: shard {_spec(f)} is missing "
                f"{len(incomplete)} cell(s) (e.g. {incomplete[:5]}) "
                "— resume that shard to completion first"
            )


def merge_files(
    paths: Sequence[Union[str, pathlib.Path]],
) -> Tuple[Any, str]:
    """Merge the run logs of a sharded run into ``(report, tag)``."""
    if not paths:
        raise CheckpointError("merge needs at least one shard file")
    files = [_load_file(p) for p in paths]
    _validate(files)
    combined: Dict[str, Any] = {}
    for f in sorted(files, key=lambda f: _spec(f).index):
        combined.update(f.completed)
    tag, meta = files[0].experiment, files[0].meta
    report = run_experiment(
        get_experiment(tag), meta.get("units") or [],
        dict(meta.get("params") or {}),
        checkpoint=Checkpoint.in_memory(tag, combined),
    )
    return report, tag
