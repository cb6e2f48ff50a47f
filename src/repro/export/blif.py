"""BLIF export of minimized machines and bare PLAs.

Berkeley Logic Interchange Format is what SIS-era flows exchange; a
downstream user who state-assigns with this package almost certainly
wants to continue in such a flow.  Two writers:

* :func:`pla_to_blif` — a combinational ``.names``-per-output model of
  a (minimized) multi-output PLA;
* :func:`assignment_to_blif` — the full sequential machine: one
  ``.latch`` per state bit plus the combinational next-state/output
  logic from the assignment's minimized PLA.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..espresso import Pla
from ..runtime import InvalidSpecError
from ..stateassign.tool import AssignmentResult

__all__ = ["pla_to_blif", "assignment_to_blif"]


def _input_chars(pla: Pla, cube: int) -> str:
    space = pla.space
    chars = []
    for part in range(pla.n_inputs):
        field = space.field(cube, part)
        chars.append({0b01: "0", 0b10: "1", 0b11: "-"}[field])
    return "".join(chars)


def pla_to_blif(
    pla: Pla,
    model: str = "pla",
    input_names: Optional[Sequence[str]] = None,
    output_names: Optional[Sequence[str]] = None,
) -> str:
    """Render a PLA as a combinational BLIF model."""
    if input_names is None:
        input_names = pla.input_labels or [
            f"x{i}" for i in range(pla.n_inputs)
        ]
    if output_names is None:
        output_names = pla.output_labels or [
            f"z{o}" for o in range(pla.n_outputs)
        ]
    if len(input_names) != pla.n_inputs:
        raise InvalidSpecError("need one name per input")
    if len(output_names) != pla.n_outputs:
        raise InvalidSpecError("need one name per output")
    lines = [
        f".model {model}",
        ".inputs " + " ".join(input_names),
        ".outputs " + " ".join(output_names),
    ]
    out_part = pla.space.num_parts - 1
    for o, name in enumerate(output_names):
        rows = [
            _input_chars(pla, cube)
            for cube in pla.onset
            if pla.space.field(cube, out_part) & (1 << o)
        ]
        lines.append(".names " + " ".join(input_names) + f" {name}")
        for row in rows:
            lines.append(f"{row} 1")
        if not rows:
            # constant zero: an empty .names block means 0 in BLIF,
            # but be explicit for tool compatibility
            lines.append("")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def assignment_to_blif(
    result: AssignmentResult, model: Optional[str] = None
) -> str:
    """Render a state assignment as a sequential BLIF model."""
    fsm = result.fsm
    enc = result.encoding
    pla = result.minimized
    n_bits = enc.n_bits
    if model is None:
        model = fsm.name
    inputs = [f"x{i}" for i in range(fsm.n_inputs)]
    states_cur = [f"s{b}" for b in range(n_bits)]
    states_nxt = [f"ns{b}" for b in range(n_bits)]
    outputs = [f"z{o}" for o in range(fsm.n_outputs)]
    reset_code = (
        enc.code_of(fsm.reset_state)
        if fsm.reset_state is not None
        else 0
    )

    body = pla_to_blif(
        pla,
        model="__ignored__",
        input_names=inputs + states_cur,
        output_names=states_nxt + outputs,
    ).splitlines()
    # keep only the .names blocks of the combinational body
    names_start = next(
        i for i, line in enumerate(body) if line.startswith(".names")
    )
    names_block = body[names_start:-1]  # drop .end

    lines = [
        f".model {model}",
        ".inputs " + " ".join(inputs),
        ".outputs " + " ".join(outputs),
    ]
    for b in range(n_bits):
        init = (reset_code >> (n_bits - 1 - b)) & 1
        lines.append(f".latch ns{b} s{b} re clk {init}")
    lines.extend(names_block)
    lines.append(".end")
    return "\n".join(lines) + "\n"
