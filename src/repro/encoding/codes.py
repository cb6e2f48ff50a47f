"""Encodings: injective maps from symbols to fixed-width binary codes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..runtime import InvalidSpecError

__all__ = ["CodeSpace", "Encoding", "code_set", "face_of", "face_table"]


def face_of(codes: Iterable[int], n_bits: int) -> Tuple[int, int]:
    """Supercube of a set of codes as ``(fixed_mask, fixed_value)``.

    Bit ``b`` of ``fixed_mask`` is set when all codes agree in bit
    ``b``; ``fixed_value`` holds the agreed value there.  A code ``c``
    lies on the face iff ``(c ^ fixed_value) & fixed_mask == 0``.
    """
    codes = list(codes)
    if not codes:
        raise InvalidSpecError("face of an empty set is undefined")
    all_ones = (1 << n_bits) - 1
    agree_one = all_ones
    agree_zero = all_ones
    for c in codes:
        agree_one &= c
        agree_zero &= ~c & all_ones
    mask = agree_one | agree_zero
    return mask, agree_one


def code_set(codes: Iterable[int]) -> int:
    """The codes in ``codes`` as one bitmask: bit ``c`` for code ``c``."""
    out = 0
    for code in codes:
        out |= 1 << code
    return out


class CodeSpace:
    """Faces of the ``nv``-bit code space on code bitmasks.

    A set of codes is one ``int`` whose bit ``c`` stands for code
    ``c`` (:func:`code_set`); faces, intruders and occupancy are then
    bitwise operations.
    """

    def __init__(self, nv: int) -> None:
        size = 1 << nv
        self.full = (1 << size) - 1
        #: (code bit, codes with that bit 1, codes with it 0), per bit
        self.bits = []
        for b in range(nv):
            ones = sum(1 << c for c in range(size) if c >> b & 1)
            self.bits.append((1 << b, ones, self.full & ~ones))

    def face(self, codes: int) -> Tuple[int, int]:
        """``face_of`` the codes in ``codes`` as ``(fixed_mask, codes
        on the face)``."""
        mask = 0
        on = self.full
        for bit, ones, zeros in self.bits:
            if not codes & zeros:
                mask |= bit
                on &= ones
            elif not codes & ones:
                mask |= bit
                on &= zeros
        return mask, on


class _FaceTable(dict):
    """Code sets of faces of the ``nv``-bit code space, keyed by
    ``lo << nv | hi``; each face is computed on its first lookup."""

    def __init__(self, nv: int) -> None:
        super().__init__()
        self.nv = nv

    def __missing__(self, key: int) -> int:
        lo, hi = key >> self.nv, key & ((1 << self.nv) - 1)
        free = hi & ~lo
        on = 0
        sub = free
        while True:  # every code between lo and hi, by subsets of free
            on |= 1 << (lo | sub)
            if not sub:
                break
            sub = (sub - 1) & free
        self[key] = on
        return on


@lru_cache(maxsize=None)
def face_table(nv: int) -> Dict[int, int]:
    """Code sets of the faces of the ``nv``-bit code space, indexed by
    ``lo << nv | hi``.

    ``lo`` is the AND and ``hi`` the OR of some codes; their face
    (the supercube of :func:`face_of`) holds exactly the codes ``c``
    with ``lo & ~c == 0`` and ``c & ~hi == 0``, and the entry is that
    set as a :func:`code_set` (the second half of
    :meth:`CodeSpace.face`).  A caller folding ``lo``/``hi`` while it
    builds a member set gets the face in one lookup instead of a loop
    over the bits.  One table per ``nv`` is shared by every caller.
    """
    return _FaceTable(nv)


class _FlagFaces(dict):
    """Packed per-bit counts of code sets, and face code sets keyed
    by their flags.

    The counts of a set of codes pack into one int, a field ``width``
    bits wide per code bit, field ``i`` counting the codes with bit
    ``i`` set: ``spread[c]`` holds a 1 in field ``i`` for each bit
    ``i`` of ``c``, and a set's counts are the sum of its codes'
    ``spread``.  ``width`` is one bit more than ``most``, the largest
    count, needs.  For ``n`` codes, adding ``some`` to their counts
    carries into the top bit of each nonzero field (their OR has the
    bit), adding ``every(n)`` into that of each field equal to ``n``
    (their AND has it), and neither sum spills into the next field.
    ``& top`` keeps those two flag words.

    The dict's key is the sum of the two flag words.  Bit ``width -
    1`` of field ``i`` and the bit above it then read 0, 1 or 2, so a
    key holds at most ``3 ** nv`` values.  Each is turned into
    ``lo``/``hi`` and looked up in :func:`face_table` on first use.
    """

    def __init__(self, nv: int, most: int) -> None:
        super().__init__()
        self.nv = nv
        self.width = width = most.bit_length() + 1
        self.faces = face_table(nv)
        size = 1 << nv
        self.spread = spread = [0] * size
        for code in range(1, size):
            low = code & -code
            spread[code] = spread[code ^ low] | 1 << (low.bit_length() - 1) * width
        self.ones = ones = spread[-1]
        self.top = ones << width - 1
        self.some = self.top - ones

    def every(self, n: int) -> int:
        """The offset that flags the fields of ``n`` codes' counts
        equal to ``n``."""
        return self.top - self.ones * n

    def count(self, codes: int) -> int:
        """The packed counts of the code set ``codes``
        (:func:`code_set`)."""
        out = 0
        while codes:
            low = codes & -codes
            codes ^= low
            out += self.spread[low.bit_length() - 1]
        return out

    def __missing__(self, key: int) -> int:
        lo = hi = 0
        for i in range(self.nv):
            flags = key >> (i * self.width + self.width - 1) & 3
            if flags:
                hi |= 1 << i
                if flags == 2:
                    lo |= 1 << i
        on = self[key] = self.faces[lo << self.nv | hi]
        return on


@dataclass
class Encoding:
    """An assignment of ``n_bits``-wide codes to symbols."""

    symbols: Tuple[str, ...]
    codes: Dict[str, int]
    n_bits: int

    def __init__(
        self,
        symbols: Sequence[str],
        codes: Mapping[str, int],
        n_bits: Optional[int] = None,
    ) -> None:
        self.symbols = tuple(symbols)
        missing = set(self.symbols) - set(codes)
        if missing:
            raise InvalidSpecError(f"codes missing for {sorted(missing)}")
        self.codes = {s: codes[s] for s in self.symbols}
        if n_bits is None:
            n_bits = max(
                1, max(self.codes.values()).bit_length()
            )
        self.n_bits = n_bits
        for s, c in self.codes.items():
            if c < 0 or c >> n_bits:
                raise InvalidSpecError(f"code of {s} does not fit in {n_bits} bits")

    # ------------------------------------------------------------------
    @classmethod
    def from_code_list(
        cls, symbols: Sequence[str], code_list: Sequence[int],
        n_bits: Optional[int] = None,
    ) -> "Encoding":
        if len(symbols) != len(code_list):
            raise InvalidSpecError("one code per symbol required")
        return cls(symbols, dict(zip(symbols, code_list)), n_bits)

    @classmethod
    def from_columns(
        cls, symbols: Sequence[str], columns: Sequence[Mapping[str, int]]
    ) -> "Encoding":
        """Build from code columns (column 0 = most significant bit)."""
        n_bits = len(columns)
        codes = {}
        for s in symbols:
            value = 0
            for col in columns:
                value = (value << 1) | (col[s] & 1)
            codes[s] = value
        return cls(symbols, codes, n_bits)

    # ------------------------------------------------------------------
    def code_of(self, symbol: str) -> int:
        return self.codes[symbol]

    def bit(self, symbol: str, column: int) -> int:
        """Bit of ``symbol`` in code column ``column`` (0 = MSB)."""
        return (self.codes[symbol] >> (self.n_bits - 1 - column)) & 1

    def column(self, column: int) -> Dict[str, int]:
        return {s: self.bit(s, column) for s in self.symbols}

    def columns(self) -> List[Dict[str, int]]:
        return [self.column(j) for j in range(self.n_bits)]

    def is_injective(self) -> bool:
        return len(set(self.codes.values())) == len(self.symbols)

    def used_codes(self) -> List[int]:
        return [self.codes[s] for s in self.symbols]

    def unused_codes(self) -> List[int]:
        used = set(self.codes.values())
        return [c for c in range(1 << self.n_bits) if c not in used]

    def face(self, subset: Iterable[str]) -> Tuple[int, int]:
        """Supercube (mask, value) of the codes of ``subset``."""
        return face_of((self.codes[s] for s in subset), self.n_bits)

    def face_dimension(self, subset: Iterable[str]) -> int:
        mask, _ = self.face(subset)
        return self.n_bits - bin(mask).count("1")

    def symbols_on_face(self, mask: int, value: int) -> List[str]:
        return [
            s
            for s in self.symbols
            if not (self.codes[s] ^ value) & mask
        ]

    def intruders(self, subset: AbstractSet[str]) -> List[str]:
        """Symbols outside ``subset`` lying on its face (paper's I_k)."""
        mask, value = self.face(subset)
        return [
            s for s in self.symbols_on_face(mask, value)
            if s not in subset
        ]

    def satisfies(self, subset: AbstractSet[str]) -> bool:
        """Face-constraint satisfaction: empty intruder set."""
        return not self.intruders(subset)

    # ------------------------------------------------------------------
    def as_table(self) -> str:
        width = max(len(s) for s in self.symbols)
        lines = [
            f"{s:<{width}}  {self.codes[s]:0{self.n_bits}b}"
            for s in self.symbols
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Encoding({len(self.symbols)} symbols, {self.n_bits} bits)"
