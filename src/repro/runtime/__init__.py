"""Resilient execution layer: errors, budgets, isolation, checkpoints.

Every solver and harness entry point runs through this subsystem:

* :mod:`repro.runtime.errors` — the structured exception taxonomy
  (:class:`ReproError` and friends);
* :mod:`repro.runtime.budget` — cooperative :class:`Budget` /
  :class:`Deadline` objects checked at solver loop heads;
* :mod:`repro.runtime.isolation` — :func:`run_isolated`, the
  per-benchmark fault boundary used by the table/sweep drivers;
* :mod:`repro.runtime.checkpoint` — the append-only run logs
  (:class:`Checkpoint`) behind ``--resume`` and ``picola merge``;
* :mod:`repro.runtime.faults` — deterministic fault injection used by
  the robustness test-suite (and ``REPRO_FAULTS`` for operators).

This package is a leaf: it imports nothing from the rest of
:mod:`repro`, so any solver may depend on it without cycles.
"""

from . import faults
from .budget import Budget, Deadline
from .checkpoint import Checkpoint, payload_failed, resumable
from .errors import (
    BudgetExceeded,
    CheckpointError,
    InfeasibleError,
    InvalidSpecError,
    InvariantViolation,
    ParseError,
    ReproError,
    SolverTimeout,
)
from .isolation import Outcome, classify_failure, run_isolated

__all__ = [
    "Budget",
    "Deadline",
    "Checkpoint",
    "BudgetExceeded",
    "CheckpointError",
    "InfeasibleError",
    "InvalidSpecError",
    "InvariantViolation",
    "ParseError",
    "ReproError",
    "SolverTimeout",
    "Outcome",
    "classify_failure",
    "run_isolated",
    "payload_failed",
    "resumable",
    "faults",
]
