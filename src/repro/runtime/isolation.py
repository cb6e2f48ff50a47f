"""Per-benchmark fault isolation for the harness drivers.

:func:`run_isolated` runs one unit of work (one table row, one sweep
cell) and maps whatever happens to a small :class:`Outcome` record
instead of letting an exception take down the whole experiment:

* ``ok``      — the callable returned; ``value`` holds the result;
* ``timeout`` — a :class:`~repro.runtime.errors.SolverTimeout`;
* ``budget``  — any other :class:`~repro.runtime.errors.BudgetExceeded`;
* ``failed``  — any other exception (``error`` holds the message).

``KeyboardInterrupt`` / ``SystemExit`` always propagate — isolation
protects the run from *benchmarks*, not from the operator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from .errors import BudgetExceeded, SolverTimeout

__all__ = ["Outcome", "run_isolated", "classify_failure", "failure_reason"]


def failure_reason(status: str, error: Optional[str]) -> str:
    """Short human label of a failure: "timeout", "budget" or the
    error type."""
    if status in ("timeout", "budget"):
        return status
    return (error or "error").split(":", 1)[0]


@dataclass
class Outcome:
    """Result of one isolated unit of work."""

    label: str
    status: str  # "ok" | "timeout" | "budget" | "failed"
    value: Any = None
    error: Optional[str] = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def reason(self) -> str:
        """Short human label: "timeout", "budget" or the error type."""
        return failure_reason(self.status, self.error)


def classify_failure(exc: BaseException) -> Tuple[str, str]:
    """Map an exception to an :class:`Outcome` status + message."""
    if isinstance(exc, SolverTimeout):
        return "timeout", str(exc)
    if isinstance(exc, BudgetExceeded):
        return "budget", str(exc)
    return "failed", f"{type(exc).__name__}: {exc}"


def run_isolated(
    fn: Callable[..., Any],
    *args: Any,
    label: str = "",
    **kwargs: Any,
) -> Outcome:
    """Run ``fn`` and convert any failure into an :class:`Outcome`."""
    t0 = time.perf_counter()
    try:
        value = fn(*args, **kwargs)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:  # repro: noqa[RPA003] -- this IS the per-benchmark fault boundary; every failure becomes an Outcome record
        status, message = classify_failure(exc)
        return Outcome(
            label=label,
            status=status,
            error=message,
            seconds=time.perf_counter() - t0,
        )
    return Outcome(
        label=label,
        status="ok",
        value=value,
        seconds=time.perf_counter() - t0,
    )
