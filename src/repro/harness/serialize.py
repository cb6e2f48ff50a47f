"""Machine-readable serialization of the experiment reports.

``to_dict``/``to_json`` for every experiment report (Table I / Table
II / ablation / sweep / fuzz), so downstream tooling (plots,
regression tracking) can consume runs without scraping the rendered
text tables.  The CLI exposes it as ``--json <path>`` on each
experiment command.  Each report class defines its own JSON form
(:meth:`~repro.harness.experiment.Experiment.to_dict`).

Partial runs serialize faithfully: failed rows carry their ``status``
and ``error`` fields, degraded cells stay ``null``, and the summary
statistics only aggregate the rows that completed — so a report with
one crashed benchmark still round-trips through JSON.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from .experiment import Experiment

__all__ = ["to_dict", "to_json"]


def to_dict(report: Any) -> Dict[str, Any]:
    """The JSON form of any experiment report."""
    if not isinstance(report, Experiment):
        raise TypeError(f"unknown report type {type(report).__name__}")
    return report.to_dict()


def to_json(report: Any, indent: int = 2) -> str:
    return json.dumps(to_dict(report), indent=indent)
