"""Cooperative budgets and deadlines for the solvers.

A :class:`Deadline` is a wall-clock cut-off; a :class:`Budget` couples
a deadline with a node/iteration counter.  Solvers call
:meth:`Budget.tick` at their loop heads; the call is cheap (one
increment, with the clock consulted only every ``check_every`` ticks)
and raises :class:`~repro.runtime.errors.BudgetExceeded` or
:class:`~repro.runtime.errors.SolverTimeout` when the limit is hit.

Both objects are *cooperative*: nothing is interrupted from outside,
so a solver that never ticks never times out.  That is deliberate —
the search loops in this package are pure Python, and checking at loop
heads keeps behaviour deterministic and signal-free.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from .errors import BudgetExceeded, InvalidSpecError, SolverTimeout

__all__ = ["Deadline", "Budget"]


class Deadline:
    """A wall-clock cut-off; ``seconds=None`` means unlimited."""

    def __init__(
        self,
        seconds: Optional[float] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if seconds is not None and seconds < 0:
            raise InvalidSpecError("deadline seconds must be >= 0")
        self.seconds = seconds
        self._clock = clock
        self._expires_at = (
            None if seconds is None else clock() + seconds
        )

    @classmethod
    def after(cls, seconds: Optional[float]) -> "Deadline":
        return cls(seconds)

    def remaining(self) -> Optional[float]:
        """Seconds left, or ``None`` when unlimited."""
        if self._expires_at is None:
            return None
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def check(self, where: str = "") -> None:
        """Raise :class:`SolverTimeout` once the deadline has passed."""
        if self.expired():
            site = where or "solver"
            raise SolverTimeout(
                f"{site}: exceeded {self.seconds:g}s deadline"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.seconds is None:
            return "Deadline(unlimited)"
        return f"Deadline({self.seconds:g}s, {self.remaining():.3f}s left)"


class Budget:
    """Node counter + deadline, checked cooperatively at loop heads.

    ``max_nodes=None`` disables the counter limit; ``seconds=None``
    (and no explicit ``deadline``) disables the wall-clock limit.  A
    shared :class:`Deadline` may be passed so several solver calls
    split one overall time allowance.
    """

    def __init__(
        self,
        max_nodes: Optional[int] = None,
        seconds: Optional[float] = None,
        *,
        deadline: Optional[Deadline] = None,
        check_every: int = 64,
    ) -> None:
        if deadline is not None and seconds is not None:
            raise InvalidSpecError("pass seconds or deadline, not both")
        self.max_nodes = max_nodes
        self.deadline = deadline or Deadline(seconds)
        self.nodes = 0
        self._check_every = max(1, check_every)

    @property
    def limited(self) -> bool:
        return (
            self.max_nodes is not None
            or self.deadline.seconds is not None
        )

    def remaining_nodes(self) -> Optional[int]:
        if self.max_nodes is None:
            return None
        return self.max_nodes - self.nodes

    def tick(self, n: int = 1, where: str = "") -> None:
        """Spend ``n`` nodes; raise when a limit is exceeded.

        The deadline is only consulted every ``check_every`` ticks, so
        a tick in a hot inner loop stays a counter increment almost
        always.
        """
        # No lock: a Budget belongs to the one solve that owns it, and
        # a lock here would tax every kernel inner loop.
        self.nodes += n
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            site = where or "solver"
            raise BudgetExceeded(
                f"{site}: exceeded {self.max_nodes} node budget"
            )
        if self.nodes % self._check_every < n:
            self.deadline.check(where)

    def check(self, where: str = "") -> None:
        """Unconditional deadline check (for coarse, slow loops)."""
        self.deadline.check(where)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Budget(nodes={self.nodes}/{self.max_nodes}, "
            f"deadline={self.deadline!r})"
        )
