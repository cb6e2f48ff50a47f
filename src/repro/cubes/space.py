"""Positional-cube spaces.

A :class:`Space` describes the layout of a multi-valued Boolean space in
*positional cube notation*, the representation used by ESPRESSO-MV and by
all face-embedding machinery in this package.

The space is a sequence of *parts*.  Each part is a (multi-valued)
variable with ``k`` possible values and owns ``k`` contiguous bit
positions.  A *cube* is a single Python integer: bit ``offset(p) + v`` is
set when the cube admits value ``v`` of part ``p``.  A binary variable is
simply a part of size two, with bit 0 encoding the literal ``x'`` (value
0) and bit 1 the literal ``x`` (value 1); ``11`` is the don't-care
literal ``-``.

Representing cubes as ints makes the core operations single machine
operations on arbitrary-precision integers:

* intersection        -> ``a & b`` (void if any part field becomes 0)
* no part field empty -> ``((a & low) + low | a) & tops == tops``
* supercube           -> ``a | b``
* containment a <= b  -> ``a & ~b == 0``
* cofactor wrt p      -> ``a | (universe & ~p)``

which is what keeps the pure-Python minimizer usable on benchmark-sized
problems.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..runtime import InvalidSpecError, ParseError

__all__ = ["Space"]


class Space:
    """Layout of a positional-cube space.

    Parameters
    ----------
    part_sizes:
        Number of values (bit positions) of each part, in order.  Binary
        variables are parts of size 2.
    labels:
        Optional human-readable name per part (used only for rendering).
    """

    __slots__ = (
        "part_sizes",
        "labels",
        "offsets",
        "part_masks",
        "universe",
        "width",
        "tops",
        "low",
    )

    def __init__(
        self,
        part_sizes: Sequence[int],
        labels: Optional[Sequence[str]] = None,
    ) -> None:
        if not part_sizes:
            raise InvalidSpecError("a space needs at least one part")
        if any(size < 1 for size in part_sizes):
            raise InvalidSpecError("every part needs at least one value")
        if labels is not None and len(labels) != len(part_sizes):
            raise InvalidSpecError("labels must match part_sizes in length")
        self.part_sizes: Tuple[int, ...] = tuple(part_sizes)
        if labels is None:
            labels = [f"p{i}" for i in range(len(part_sizes))]
        self.labels: Tuple[str, ...] = tuple(labels)
        offsets: List[int] = []
        masks: List[int] = []
        tops = low = 0
        offset = 0
        for size in self.part_sizes:
            offsets.append(offset)
            masks.append(((1 << size) - 1) << offset)
            tops |= 1 << (offset + size - 1)
            low |= ((1 << (size - 1)) - 1) << offset
            offset += size
        self.offsets: Tuple[int, ...] = tuple(offsets)
        self.part_masks: Tuple[int, ...] = tuple(masks)
        self.width: int = offset
        self.universe: int = (1 << offset) - 1
        # per part, its top bit and its other bits (see void_tops)
        self.tops: int = tops
        self.low: int = low

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def binary(cls, n_inputs: int, n_outputs: int = 0) -> "Space":
        """Space of ``n_inputs`` binary variables plus an optional output
        part of size ``n_outputs`` (the ESPRESSO multi-output encoding)."""
        if n_inputs < 0 or n_outputs < 0:
            raise InvalidSpecError("negative part counts")
        sizes = [2] * n_inputs
        labels = [f"x{i}" for i in range(n_inputs)]
        if n_outputs:
            sizes.append(n_outputs)
            labels.append("out")
        if not sizes:
            raise InvalidSpecError("empty space")
        return cls(sizes, labels)

    @property
    def num_parts(self) -> int:
        return len(self.part_sizes)

    @property
    def has_output_part(self) -> bool:
        """True when the last part is labelled 'out'.

        Advisory for rendering/parsing only; the set-algebra kernel
        treats all parts uniformly.
        """
        return self.labels[-1] == "out"

    def _is_output_part(self, part: int) -> bool:
        return part == len(self.part_sizes) - 1 and self.has_output_part

    # ------------------------------------------------------------------
    # field access
    # ------------------------------------------------------------------
    def void_tops(self, cube: int) -> int:
        """The top bits of the parts whose field in ``cube`` is empty
        (0 when the cube is not void), for every part at once.

        Adding ``low`` to ``cube & low`` carries into a part's top bit
        exactly when one of the part's low bits is set, and never past
        that top bit, so a part is empty iff its top bit is clear in
        ``(cube & low) + low | cube``.  A size-1 part has no low bits:
        its one bit is its top.  Hot loops inline the expression.
        """
        low = self.low
        return self.tops & ~((cube & low) + low | cube)

    def field(self, cube: int, part: int) -> int:
        """The (unshifted) bit field of ``part`` inside ``cube``."""
        return (cube & self.part_masks[part]) >> self.offsets[part]

    def with_field(self, cube: int, part: int, field: int) -> int:
        """``cube`` with the field of ``part`` replaced by ``field``."""
        if field >> self.part_sizes[part]:
            raise InvalidSpecError("field wider than part")
        return (cube & ~self.part_masks[part]) | (field << self.offsets[part])

    def position(self, part: int, value: int) -> int:
        """Global bit index of ``value`` within ``part``."""
        if not 0 <= value < self.part_sizes[part]:
            raise InvalidSpecError("value out of range for part")
        return self.offsets[part] + value

    def literal(self, part: int, value: int) -> int:
        """Cube asserting ``part == value`` and leaving all else free."""
        return self.universe & ~self.part_masks[part] | (
            1 << self.position(part, value)
        )

    def make_cube(self, fields: Sequence[int]) -> int:
        """Build a cube from one field per part."""
        if len(fields) != self.num_parts:
            raise InvalidSpecError("need one field per part")
        cube = 0
        for part, field in enumerate(fields):
            if field >> self.part_sizes[part]:
                raise InvalidSpecError(f"field {field:#x} too wide for part {part}")
            cube |= field << self.offsets[part]
        return cube

    def fields(self, cube: int) -> List[int]:
        """All part fields of ``cube``."""
        return [self.field(cube, part) for part in range(self.num_parts)]

    def minterm(self, values: Sequence[int]) -> int:
        """The 0-cube selecting exactly one value per part."""
        if len(values) != self.num_parts:
            raise InvalidSpecError("need one value per part")
        cube = 0
        for part, value in enumerate(values):
            cube |= 1 << self.position(part, value)
        return cube

    def num_minterms(self) -> int:
        result = 1
        for size in self.part_sizes:
            result *= size
        return result

    def iter_minterms(self) -> Iterator[int]:
        """Every 0-cube of the space, in lexicographic value order."""
        values = [0] * self.num_parts
        while True:
            yield self.minterm(values)
            part = self.num_parts - 1
            while part >= 0:
                values[part] += 1
                if values[part] < self.part_sizes[part]:
                    break
                values[part] = 0
                part -= 1
            if part < 0:
                return

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def format_cube(self, cube: int) -> str:
        """Human/PLA-style rendering.

        Binary parts print as ``0``, ``1``, ``-`` (or ``~`` for a void
        field); larger parts print their raw bit pattern, highest value
        first, separated by spaces.
        """
        chunks: List[str] = []
        for part, size in enumerate(self.part_sizes):
            field = self.field(cube, part)
            if size == 2 and not self._is_output_part(part):
                chunks.append({0: "~", 1: "0", 2: "1", 3: "-"}[field])
            else:
                bits = "".join(
                    "1" if field & (1 << value) else "0"
                    for value in range(size)
                )
                chunks.append(bits)
        # group consecutive binary columns together, separate MV parts
        out: List[str] = []
        run = ""
        for part, chunk in enumerate(chunks):
            if self.part_sizes[part] == 2 and not self._is_output_part(part):
                run += chunk
            else:
                if run:
                    out.append(run)
                    run = ""
                out.append(chunk)
        if run:
            out.append(run)
        return " ".join(out)

    def parse_cube(self, text: str) -> int:
        """Inverse of :meth:`format_cube` (spaces optional)."""
        flat = text.replace(" ", "")
        cube = 0
        pos = 0
        for part, size in enumerate(self.part_sizes):
            if size == 2 and not self._is_output_part(part):
                if pos >= len(flat):
                    raise ParseError(f"cube string too short: {text!r}")
                char = flat[pos]
                try:
                    field = {"~": 0, "0": 1, "1": 2, "-": 3, "2": 3}[char]
                except KeyError:
                    raise ParseError(f"bad literal {char!r} in {text!r}")
                pos += 1
            else:
                bits = flat[pos : pos + size]
                if len(bits) != size or set(bits) - {"0", "1"}:
                    raise ParseError(f"bad MV field in {text!r}")
                field = 0
                for value, bit in enumerate(bits):
                    if bit == "1":
                        field |= 1 << value
                pos += size
            cube |= field << self.offsets[part]
        if pos != len(flat):
            raise ParseError(f"cube string too long: {text!r}")
        return cube

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Space) and self.part_sizes == other.part_sizes

    def __hash__(self) -> int:
        return hash(self.part_sizes)

    def __repr__(self) -> str:
        return f"Space(parts={list(self.part_sizes)})"
