"""Regression gate: compare an experiment run against a golden record.

Everything in this repository is deterministic (seeded encoders,
seeded benchmark generator), so a fresh run of the quick Table I
should reproduce the stored golden JSON exactly; the comparator still
takes a tolerance so intentional algorithm changes can be reviewed as
bounded drifts rather than hard failures.

Usage::

    from repro.harness import run_table1, QUICK_FSMS
    from repro.harness.regression import compare_to_golden

    report = run_table1(QUICK_FSMS, include_enc=False)
    drifts = compare_to_golden(report, "expected/table1_quick.json")

The test-suite keeps the golden file honest
(``tests/test_regression_gate.py``).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Union

from .table1 import Table1Report

__all__ = ["Drift", "compare_to_golden", "write_golden"]

#: repository-level directory holding golden records
GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[3] / "expected"


@dataclass
class Drift:
    """One numeric difference between a run and its golden record."""

    key: str
    golden: Union[int, float]
    measured: Union[int, float]

    @property
    def relative(self) -> float:
        if self.golden == 0:
            return float("inf") if self.measured else 0.0
        return abs(self.measured - self.golden) / abs(self.golden)

    def __str__(self) -> str:
        return f"{self.key}: golden={self.golden} measured={self.measured}"


def _flatten(prefix: str, value: Any, out: Dict[str, Any]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[prefix] = value


def write_golden(report: Any, path: Union[str, pathlib.Path]) -> None:
    """Record a run as the new golden reference."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = report.to_dict()
    _strip_timings(data)
    path.write_text(json.dumps(data, indent=2, sort_keys=True))


def _strip_timings(data: Any) -> None:
    """Wall-clock values are machine-dependent; never golden-compare."""
    if isinstance(data, dict):
        for key in [k for k in data if k in ("seconds", "time_ratios")]:
            del data[key]
        for value in data.values():
            _strip_timings(value)
    elif isinstance(data, list):
        for value in data:
            _strip_timings(value)


def compare_to_golden(
    report: Any,
    path: Union[str, pathlib.Path],
    tolerance: float = 0.0,
) -> List[Drift]:
    """All numeric drifts beyond ``tolerance`` (relative).

    Returns an empty list when the run reproduces the golden record.
    Raises FileNotFoundError when no golden record exists yet.
    """
    path = pathlib.Path(path)
    golden = json.loads(path.read_text())
    measured = report.to_dict()
    _strip_timings(golden)
    _strip_timings(measured)
    flat_g: Dict[str, Any] = {}
    flat_m: Dict[str, Any] = {}
    _flatten("", golden, flat_g)
    _flatten("", measured, flat_m)
    drifts: List[Drift] = []
    for key in sorted(set(flat_g) | set(flat_m)):
        g = flat_g.get(key)
        m = flat_m.get(key)
        if g is None or m is None:
            drifts.append(Drift(key, g if g is not None else float("nan"),
                                 m if m is not None else float("nan")))
            continue
        drift = Drift(key, g, m)
        if drift.relative > tolerance:
            drifts.append(drift)
    return drifts
