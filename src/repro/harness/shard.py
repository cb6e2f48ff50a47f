"""Deterministic sharding for multi-host sweeps.

The experiment drivers are embarrassingly parallel over their unit
lists (Table I/II rows, sweep ``seed/fsm`` cells, ablation FSMs);
this module splits that list across *machines* the way
:mod:`repro.harness.parallel` splits it across *processes*:

* :class:`ShardSpec` — the ``--shard K/N`` partition: shard ``K`` of
  ``N`` owns every unit whose position in the full, deterministic
  unit list satisfies ``i % N == K - 1``.  Round-robin by position,
  so heterogeneous unit costs spread evenly and the N shards cover
  every unit exactly once with no coordination.
* :func:`build_meta` — the run descriptor stamped into the header of
  every ``--resume`` run log: shard spec (or ``null``), the full
  ordered unit universe and the experiment parameters.  ``picola
  merge`` validates these against each other before combining the
  shard logs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from ..runtime import InvalidSpecError

__all__ = ["ShardSpec", "parse_shard", "resolve_shard", "build_meta"]


@dataclass(frozen=True)
class ShardSpec:
    """``--shard index/total`` — 1-based shard ``index`` of ``total``."""

    index: int
    total: int

    def __post_init__(self) -> None:
        if self.total < 1:
            raise InvalidSpecError(
                f"shard total must be >= 1, got {self.total}"
            )
        if not 1 <= self.index <= self.total:
            raise InvalidSpecError(
                f"shard index must be in 1..{self.total}, "
                f"got {self.index}"
            )

    def __str__(self) -> str:
        return f"{self.index}/{self.total}"

    def owns(self, position: int) -> bool:
        """Does this shard own the unit at ``position`` (0-based) in
        the full unit list?"""
        return position % self.total == self.index - 1

    def partition(self, keys: Sequence[str]) -> List[str]:
        """The subsequence of ``keys`` this shard owns.  Over all N
        shards the partitions are disjoint and cover every key."""
        return [k for i, k in enumerate(keys) if self.owns(i)]

    def to_dict(self) -> Dict[str, int]:
        return {"index": self.index, "total": self.total}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardSpec":
        return cls(index=int(data["index"]), total=int(data["total"]))


def parse_shard(text: str) -> ShardSpec:
    """Parse a ``K/N`` command-line value into a :class:`ShardSpec`."""
    parts = text.split("/")
    if len(parts) != 2:
        raise InvalidSpecError(
            f"shard spec must look like K/N, got {text!r}"
        )
    try:
        index, total = int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidSpecError(
            f"shard spec must be two integers K/N, got {text!r}"
        ) from None
    return ShardSpec(index=index, total=total)


def resolve_shard(
    shard: Optional[Union[str, ShardSpec]]
) -> Optional[ShardSpec]:
    """Accept ``None``, a ``"K/N"`` string, or a ready spec."""
    if shard is None or isinstance(shard, ShardSpec):
        return shard
    return parse_shard(shard)


def build_meta(
    units: Sequence[str],
    params: Dict[str, Any],
    shard: Optional[ShardSpec],
) -> Dict[str, Any]:
    """The run descriptor for a run log's header.

    ``units`` is the *full* ordered unit universe of the unsharded
    run — every shard of one campaign records the identical list, so
    the merge can both validate compatibility and detect missing or
    overlapping cells.  ``params`` round-trips through JSON so tuples
    and lists compare equal across processes.
    """
    return {
        "shard": shard.to_dict() if shard is not None else None,
        "units": list(units),
        "params": json.loads(json.dumps(params)),
    }
