"""Finite state machine model (KISS2 semantics).

An :class:`Fsm` is a list of symbolic transitions
``(input cube, present state, next state, output cube)`` exactly as in
a ``.kiss2`` file.  Inputs and outputs are strings over ``0 1 -`` and
states are symbolic names; ``next state`` and outputs may be the
don't-care marker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..runtime import InvalidSpecError

__all__ = ["Transition", "Fsm"]

DC_STATE = "*"  # kiss don't-care next state


@dataclass(frozen=True)
class Transition:
    """One symbolic product term of the FSM's flow table."""

    inputs: str
    present: str
    next: str
    outputs: str

    def __post_init__(self) -> None:
        if set(self.inputs) - {"0", "1", "-"}:
            raise InvalidSpecError(f"bad input field {self.inputs!r}")
        if set(self.outputs) - {"0", "1", "-"}:
            raise InvalidSpecError(f"bad output field {self.outputs!r}")


@dataclass
class Fsm:
    """A symbolic finite state machine."""

    name: str
    transitions: List[Transition] = field(default_factory=list)
    reset_state: Optional[str] = None

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def n_inputs(self) -> int:
        return len(self.transitions[0].inputs) if self.transitions else 0

    @property
    def n_outputs(self) -> int:
        return len(self.transitions[0].outputs) if self.transitions else 0

    @property
    def states(self) -> List[str]:
        """All state names, in order of first appearance (reset first)."""
        seen: Dict[str, None] = {}
        if self.reset_state is not None:
            seen[self.reset_state] = None
        for t in self.transitions:
            if t.present != DC_STATE:
                seen.setdefault(t.present, None)
            if t.next != DC_STATE:
                seen.setdefault(t.next, None)
        return list(seen)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def min_code_length(self) -> int:
        """ceil(log2(n_states)): the minimum encoding length."""
        n = self.n_states
        if n <= 1:
            return 1
        return (n - 1).bit_length()

    # ------------------------------------------------------------------
    def add(self, inputs: str, present: str, next_state: str,
            outputs: str) -> None:
        t = Transition(inputs, present, next_state, outputs)
        if self.transitions:
            if len(inputs) != self.n_inputs:
                raise InvalidSpecError("inconsistent input width")
            if len(outputs) != self.n_outputs:
                raise InvalidSpecError("inconsistent output width")
        self.transitions.append(t)

    def validate(self) -> None:
        """Raise ValueError on structural problems."""
        if not self.transitions:
            raise InvalidSpecError(f"{self.name}: no transitions")
        widths = {(len(t.inputs), len(t.outputs)) for t in self.transitions}
        if len(widths) != 1:
            raise InvalidSpecError(f"{self.name}: inconsistent field widths")
        mentioned = {t.present for t in self.transitions} | {
            t.next for t in self.transitions
        }
        if self.reset_state is not None and self.reset_state not in mentioned:
            raise InvalidSpecError(f"{self.name}: unknown reset state")
        # every state should be reachable as a present state target of
        # at least one transition or be the reset state; we only warn by
        # validation here when a next state never appears as present
        present = {t.present for t in self.transitions}
        for t in self.transitions:
            if t.next != DC_STATE and t.next not in present:
                # legal in KISS (terminal states) -- tolerated
                pass

    def stats(self) -> Dict[str, int]:
        return {
            "inputs": self.n_inputs,
            "outputs": self.n_outputs,
            "states": self.n_states,
            "terms": len(self.transitions),
        }

    def transitions_from(self, state: str) -> List[Transition]:
        return [t for t in self.transitions if t.present == state]

    def conflicting_rows(self) -> List[Tuple[Transition, Transition]]:
        """Pairs of same-state rows that overlap with different behaviour.

        Overlapping rows with identical (next, outputs) are harmless
        duplication; overlapping rows that disagree make the machine
        nondeterministic and are reported here.
        """
        conflicts: List[Tuple[Transition, Transition]] = []
        by_state: Dict[str, List[Transition]] = {}
        for t in self.transitions:
            by_state.setdefault(t.present, []).append(t)
        for rows in by_state.values():
            for i, a in enumerate(rows):
                for b in rows[i + 1 :]:
                    overlap = all(
                        x == "-" or y == "-" or x == y
                        for x, y in zip(a.inputs, b.inputs)
                    )
                    if not overlap:
                        continue
                    same = a.next == b.next and all(
                        x == y or "-" in (x, y)
                        for x, y in zip(a.outputs, b.outputs)
                    )
                    if not same:
                        conflicts.append((a, b))
        return conflicts

    def check_deterministic(self) -> None:
        """Raise InvalidSpecError when overlapping rows disagree."""
        conflicts = self.conflicting_rows()
        if conflicts:
            a, b = conflicts[0]
            raise InvalidSpecError(
                f"{self.name}: nondeterministic rows for state "
                f"{a.present}: ({a.inputs} -> {a.next}/{a.outputs}) vs "
                f"({b.inputs} -> {b.next}/{b.outputs})"
                + (
                    f" and {len(conflicts) - 1} more conflict(s)"
                    if len(conflicts) > 1
                    else ""
                )
            )

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"Fsm({self.name!r}, i={s['inputs']}, o={s['outputs']}, "
            f"s={s['states']}, p={s['terms']})"
        )
