"""PLA (programmable logic array) containers and espresso-format I/O.

A :class:`Pla` bundles an on-set and a don't-care set over a space of
binary inputs plus one multi-output part, which is exactly the
ESPRESSO ``.type fr`` view of a multi-output Boolean function.  The
minimizer itself is representation-agnostic (it works on any
:class:`~repro.cubes.space.Space`); this module is the bridge to files
and to the FSM substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..cubes import Space, bulk, complement, contains
from ..runtime import InvalidSpecError, ParseError

__all__ = ["Pla", "parse_pla", "format_pla"]

#: .i/.o ceiling for parsed files — beyond this the Space constructor
#: alone takes unbounded time/memory, so a corrupt header must fail
#: as a ParseError instead of wedging the process
MAX_PARSED_WIDTH = 10**6


@dataclass
class Pla:
    """A multi-output two-level function: on-set F and don't-care set D.

    ``space`` has ``n_inputs`` binary parts followed by one output part
    of size ``n_outputs`` (size 1 for single-output functions).
    """

    n_inputs: int
    n_outputs: int
    onset: List[int] = field(default_factory=list)
    dcset: List[int] = field(default_factory=list)
    input_labels: Optional[List[str]] = None
    output_labels: Optional[List[str]] = None

    def __post_init__(self) -> None:
        if self.n_inputs < 0 or self.n_outputs < 1:
            raise InvalidSpecError("need n_inputs >= 0 and n_outputs >= 1")
        self.space = Space.binary(self.n_inputs, self.n_outputs)

    # ------------------------------------------------------------------
    def num_terms(self) -> int:
        return len(self.onset)

    def literal_count(self) -> int:
        """Input literals asserted across the on-set (area proxy).

        One ``nonfull_counts`` call: a literal is a non-full input
        field, so the count is the sum over input parts.
        """
        counts = bulk.nonfull_counts(self.space, self.onset)
        return sum(counts[: self.n_inputs])

    def gate_area(self) -> int:
        """Crude PLA area model: terms x (2*inputs + outputs)."""
        return self.num_terms() * (2 * self.n_inputs + self.n_outputs)

    def add_term(self, inputs: str, outputs: str) -> None:
        """Append a cube given input chars ``01-`` and output chars ``01``."""
        self.onset.append(self.space.parse_cube(inputs + " " + outputs))

    # ------------------------------------------------------------------
    def off_set(self) -> List[int]:
        """Complement of F | D in the full multi-output space."""
        return complement(self.space, self.onset + self.dcset)

    def eval_minterm(self, input_values: Sequence[int]) -> List[int]:
        """Output vector (0/1 per output, -1 for don't care) at a vertex."""
        result = []
        for out in range(self.n_outputs):
            values = list(input_values) + [out]
            m = self.space.minterm(values)
            if any(contains(c, m) for c in self.onset):
                result.append(1)
            elif any(contains(c, m) for c in self.dcset):
                result.append(-1)
            else:
                result.append(0)
        return result

    def copy(self) -> "Pla":
        return Pla(
            self.n_inputs,
            self.n_outputs,
            list(self.onset),
            list(self.dcset),
            list(self.input_labels) if self.input_labels else None,
            list(self.output_labels) if self.output_labels else None,
        )

    def __repr__(self) -> str:
        return (
            f"Pla(i={self.n_inputs}, o={self.n_outputs}, "
            f"p={len(self.onset)}, dc={len(self.dcset)})"
        )


def parse_pla(text: str) -> Pla:
    """Parse an espresso-format PLA (``.type f`` or ``.type fr``/``fd``).

    Output characters: ``1`` on-set, ``0`` off-set (implicit for fr),
    ``-``/``~``/``2`` don't-care.
    """
    n_inputs = n_outputs = None
    input_labels = output_labels = None
    rows: List[Tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            key = parts[0]
            if key in (".i", ".o"):
                if len(parts) < 2:
                    raise ParseError(
                        f"directive {key} needs an argument: {line!r}"
                    )
                try:
                    if key == ".i":
                        n_inputs = int(parts[1])
                    else:
                        n_outputs = int(parts[1])
                except ValueError as exc:
                    raise ParseError(
                        f"bad directive argument: {line!r}"
                    ) from exc
            elif key == ".ilb":
                input_labels = parts[1:]
            elif key == ".ob":
                output_labels = parts[1:]
            else:
                continue  # tolerate unknown dot-directives
        else:
            chunks = line.split()
            if len(chunks) == 1:
                if n_inputs is None:
                    raise ParseError(".i must precede cube rows")
                in_part, out_part = chunks[0][:n_inputs], chunks[0][n_inputs:]
            else:
                in_part = "".join(chunks[:-1])
                out_part = chunks[-1]
            rows.append((in_part, out_part))
    if n_inputs is None or n_outputs is None:
        raise ParseError("PLA missing .i or .o header")
    if n_inputs < 0 or n_outputs < 1:
        raise ParseError(
            f"bad PLA shape .i {n_inputs} .o {n_outputs} "
            "(need .i >= 0 and .o >= 1)"
        )
    if n_inputs > MAX_PARSED_WIDTH or n_outputs > MAX_PARSED_WIDTH:
        raise ParseError(
            f"PLA header .i {n_inputs} .o {n_outputs} exceeds the "
            f"parser ceiling of {MAX_PARSED_WIDTH}"
        )
    try:
        pla = Pla(n_inputs, n_outputs, input_labels=input_labels,
                  output_labels=output_labels)
    except InvalidSpecError as exc:
        # a malformed *file* is a parse failure, whatever the
        # container-level validation calls it
        raise ParseError(str(exc)) from exc
    for in_part, out_part in rows:
        if len(in_part) != n_inputs or len(out_part) != n_outputs:
            raise ParseError(f"row width mismatch: {in_part} {out_part}")
        base = _parse_inputs(pla.space, in_part)
        on_field = 0
        dc_field = 0
        for out, char in enumerate(out_part):
            if char == "1":
                on_field |= 1 << out
            elif char in "-~2":
                dc_field |= 1 << out
            elif char == "0":
                pass
            else:
                raise ParseError(f"bad output char {char!r}")
        out_mask_part = pla.space.num_parts - 1
        if on_field:
            pla.onset.append(
                pla.space.with_field(base, out_mask_part, on_field)
            )
        if dc_field:
            pla.dcset.append(
                pla.space.with_field(base, out_mask_part, dc_field)
            )
    return pla


def _parse_inputs(space: Space, chars: str) -> int:
    cube = 0
    for part, char in enumerate(chars):
        try:
            f = {"0": 0b01, "1": 0b10, "-": 0b11, "2": 0b11, "~": 0b11}[char]
        except KeyError:
            raise ParseError(f"bad input char {char!r}")
        cube |= f << space.offsets[part]
    return cube


def format_pla(pla: Pla, pla_type: str = "fr") -> str:
    """Render a :class:`Pla` in espresso file format."""
    lines = [f".i {pla.n_inputs}", f".o {pla.n_outputs}"]
    if pla.input_labels:
        lines.append(".ilb " + " ".join(pla.input_labels))
    if pla.output_labels:
        lines.append(".ob " + " ".join(pla.output_labels))
    lines.append(f".type {pla_type}")
    rows: List[str] = []
    for cube in pla.onset:
        rows.append(_format_row(pla, cube, "1"))
    if pla_type in ("fr", "fd"):
        for cube in pla.dcset:
            rows.append(_format_row(pla, cube, "-"))
    lines.append(f".p {len(rows)}")
    lines.extend(rows)
    lines.append(".e")
    return "\n".join(lines) + "\n"


def _format_row(pla: Pla, cube: int, on_char: str) -> str:
    space = pla.space
    chars = []
    for part in range(pla.n_inputs):
        f = space.field(cube, part)
        chars.append({0b01: "0", 0b10: "1", 0b11: "-"}.get(f, "~"))
    out_field = space.field(cube, space.num_parts - 1)
    out_chars = "".join(
        on_char if out_field & (1 << o) else "0" for o in range(pla.n_outputs)
    )
    return "".join(chars) + " " + out_chars
