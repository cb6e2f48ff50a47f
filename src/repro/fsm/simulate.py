"""FSM simulation: symbolic machines and encoded implementations.

Two simulators with the same step interface:

* :class:`SymbolicSimulator` walks the KISS2 flow table directly;
* :class:`EncodedSimulator` evaluates an encoded machine's (minimized)
  PLA — next-state bits and outputs — against a state encoding.

``cosimulate`` drives both with the same input sequence and checks
that the encoded implementation refines the symbolic specification
(it must agree wherever the specification is defined; don't-care
outputs may be anything).  The integration tests use this to prove the
whole assign/encode/minimize pipeline preserves behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..espresso import Pla
from ..runtime import InvalidSpecError
from .machine import DC_STATE, Fsm

__all__ = [
    "SymbolicSimulator",
    "EncodedSimulator",
    "CosimMismatch",
    "cosimulate",
    "random_input_sequence",
]


class CosimMismatch(AssertionError):
    """The encoded machine diverged from the symbolic specification."""


class SymbolicSimulator:
    """Step through the KISS2 flow table."""

    def __init__(self, fsm: Fsm, reset: Optional[str] = None) -> None:
        self.fsm = fsm
        self.state = reset or fsm.reset_state or fsm.states[0]

    def step(self, inputs: str) -> Tuple[Optional[str], Optional[str]]:
        """Apply one input vector; returns (next_state, outputs).

        Returns ``(None, None)`` when the behaviour is unspecified for
        this (state, input) pair — the machine stays put and the
        co-simulation skips checking that step.
        """
        if len(inputs) != self.fsm.n_inputs:
            raise InvalidSpecError("input width mismatch")
        for t in self.fsm.transitions_from(self.state):
            if all(p in ("-", i) for p, i in zip(t.inputs, inputs)):
                if t.next == DC_STATE:
                    # any successor is acceptable; the caller decides
                    # how to resynchronize
                    return DC_STATE, t.outputs
                self.state = t.next
                return t.next, t.outputs
        return None, None


class EncodedSimulator:
    """Step through an encoded machine's PLA."""

    def __init__(
        self,
        pla: Pla,
        n_inputs: int,
        n_state_bits: int,
        reset_code: int,
    ) -> None:
        if pla.n_inputs != n_inputs + n_state_bits:
            raise InvalidSpecError("PLA shape does not match machine shape")
        self.pla = pla
        self.n_inputs = n_inputs
        self.n_state_bits = n_state_bits
        self.code = reset_code

    def step(self, inputs: str) -> Tuple[int, List[int]]:
        """Apply one input vector; returns (next_code, output bits).

        Hardware semantics: the SOP's on-set decides everything — a
        wire is 1 exactly when some product term fires (the don't-care
        set no longer exists once the cover is committed to gates).
        """
        from ..cubes import contains

        values = [int(ch) for ch in inputs]
        values += [
            (self.code >> (self.n_state_bits - 1 - b)) & 1
            for b in range(self.n_state_bits)
        ]
        space = self.pla.space
        raw = []
        for out in range(self.pla.n_outputs):
            m = space.minterm(values + [out])
            raw.append(
                1 if any(contains(c, m) for c in self.pla.onset) else 0
            )
        next_code = 0
        for b in range(self.n_state_bits):
            next_code = (next_code << 1) | raw[b]
        outputs = raw[self.n_state_bits :]
        self.code = next_code
        return next_code, outputs


def _resolve_rng(
    seed: Optional[int], rng: Optional[random.Random], where: str
) -> random.Random:
    """One explicit randomness source: ``rng`` wins, then ``seed``.

    Passing neither is an error: verification runs must be replayable
    from their recorded seed.
    """
    if rng is not None:
        if seed is not None:
            raise InvalidSpecError(f"{where}: pass seed or rng, not both")
        return rng
    if seed is None:
        raise InvalidSpecError(
            f"{where}: pass seed= or rng= so the run is reproducible"
        )
    return random.Random(seed)


def random_input_sequence(
    n_inputs: int,
    length: int,
    seed: Optional[int] = None,
    *,
    rng: Optional[random.Random] = None,
) -> List[str]:
    """``length`` random input vectors from an explicit seed or rng."""
    rng = _resolve_rng(seed, rng, "random_input_sequence")
    return [
        "".join(rng.choice("01") for _ in range(n_inputs))
        for _ in range(length)
    ]


def cosimulate(
    fsm: Fsm,
    pla: Pla,
    codes: dict,
    n_bits: int,
    sequence: Optional[Sequence[str]] = None,
    *,
    steps: int = 256,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> int:
    """Run both simulators in lock step; returns checked-step count.

    Raises :class:`CosimMismatch` on the first divergence from the
    specified behaviour.  Unspecified (state, input) steps re-seed the
    encoded state from the symbolic one and are not counted.

    The input sequence may be passed explicitly, or generated from
    ``steps`` plus an explicit ``seed``/``rng`` (exactly
    :func:`random_input_sequence`), so verification is reproducible
    end-to-end from one recorded seed.
    """
    if sequence is None:
        sequence = random_input_sequence(
            fsm.n_inputs, steps, seed=seed, rng=rng
        )
    elif seed is not None or rng is not None:
        raise InvalidSpecError(
            "cosimulate: pass sequence or seed/rng, not both"
        )
    sym = SymbolicSimulator(fsm)
    enc = EncodedSimulator(
        pla, fsm.n_inputs, n_bits, codes[sym.state]
    )
    checked = 0
    for step_no, inputs in enumerate(sequence):
        before = sym.state
        want_next, want_out = sym.step(inputs)
        got_code, got_out = enc.step(inputs)
        if want_next is None or want_next == DC_STATE:
            # unspecified (or don't-care successor): resynchronize
            enc.code = codes[sym.state]
            continue
        want_code = codes[sym.state]
        if got_code != want_code:
            raise CosimMismatch(
                f"step {step_no}: from {before} on {inputs} expected "
                f"state {sym.state} (code {want_code:0{n_bits}b}), "
                f"got code {got_code:0{n_bits}b}"
            )
        for o, ch in enumerate(want_out):
            if ch == "-":
                continue
            if got_out[o] == -1:
                continue  # implementation may resolve dc either way
            if got_out[o] != int(ch):
                raise CosimMismatch(
                    f"step {step_no}: from {before} on {inputs} "
                    f"output {o} expected {ch}, got {got_out[o]}"
                )
        checked += 1
    return checked
