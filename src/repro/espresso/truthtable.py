"""Minimum cover sizes of small single-output functions, on truth tables.

A face constraint's function (footnote 2 of the paper) lives on the
``nv``-bit code space: on-set = member codes, off-set = the other used
codes, don't-cares = the unused codes.  For ``nv <= MAX_VARS`` the
whole function fits in one ``2**nv``-bit ``int`` whose bit ``m`` stands
for code ``m``.  A cube is a base code ``b`` and a set ``F`` of free
variables (``b & F == 0``); its codes are ``span[F] << b``, where
``span[F]`` is the mask of the subsets of ``F``.  The primes come one
free set at a time, a few bitwise operations each:

* ``imp[F]``, the mask of the bases whose cube with free set ``F``
  lies inside ``on | dc``: ``imp[0] = on | dc`` and
  ``imp[F] = imp[F-x] & imp[F-x] >> 2**x & zero[x]``, ``zero[x]`` being
  the codes whose bit ``x`` is 0;
* the primes of ``F``: ``imp[F]`` minus every base of ``F`` whose cube
  grows by one more variable ``x``, ``imp[F+x] | imp[F+x] << 2**x``;
* a prime's column: its care codes, ``span[F] << b & care``.

:func:`cover_size` returns ``len(exact_minimize(...))``: the minimum
cover size does not depend on how it is found, so the primes are found
on bitmasks and handed to :mod:`repro.espresso.exact`'s own
minimum-cover search.
``tests/test_truthtable.py`` pins it to
:func:`~repro.espresso.exact_minimize`, and
``tests/test_truthtable_oracle.py`` pins :func:`_prime_columns` to a
scan of every cube.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Tuple

from ..cubes.bulk import bit_count
from ..obs import resolve_tracer
from ..runtime import InvalidSpecError
from .exact import _min_cover

__all__ = ["MAX_VARS", "cover_size"]

#: the largest code space a truth table covers: 2**7 bits per function
MAX_VARS = 7


@lru_cache(maxsize=None)
def _tables(nv: int) -> Tuple[List[int], List[Tuple[int, ...]], List[tuple]]:
    """``(span, order, grows)`` of one ``nv``.

    ``span[F]`` is the mask of the subsets of the free set ``F``.
    ``order`` lists every nonempty free set ``F`` in increasing order
    as ``(F, F - x, 2**x, zero[x])`` for its lowest variable ``x``,
    ``zero[x]`` being the mask of the codes whose bit ``x`` is 0.
    ``grows[F]`` pairs ``F + x`` with ``2**x`` for every variable
    ``x`` outside ``F``.
    """
    size = 1 << nv
    zero = [
        sum(1 << m for m in range(size) if not m >> x & 1)
        for x in range(nv)
    ]
    span = [
        sum(1 << s for s in range(size) if not s & ~free)
        for free in range(size)
    ]
    order = []
    for free in range(1, size):
        x = (free & -free).bit_length() - 1
        order.append((free, free ^ 1 << x, 1 << x, zero[x]))
    grows = [
        tuple((free | 1 << x, 1 << x) for x in range(nv) if not free >> x & 1)
        for free in range(size)
    ]
    return span, order, grows


def _prime_columns(nv: int, inside: int, care: int) -> List[int]:
    """The distinct nonzero care columns of the primes of ``inside``,
    sorted: ``span[F] << b & care`` for every prime ``(b, F)``."""
    span, order, grows = _tables(nv)
    imp = [inside] + [0] * len(order)
    for free, sub, step, zero in order:
        bases = imp[sub]
        if bases:
            imp[free] = bases & bases >> step & zero
    columns = set()
    for free, bases in enumerate(imp):
        if not bases:
            continue
        for grown, step in grows[free]:
            up = imp[grown]
            if up:
                bases &= ~(up | up << step)
        face = span[free]
        while bases:
            base = bases & -bases
            bases ^= base
            column = face << base.bit_length() - 1 & care
            if column:
                columns.add(column)
    return sorted(columns)


def cover_size(nv: int, onset: Iterable[int], dc: int, *, tracer=None) -> int:
    """Cubes in the minimum cover of one single-output function.

    ``onset`` holds the on-set codes, in any order; ``dc`` is the
    bitmask of don't-care codes.  The result equals
    ``len(exact_minimize(...))``.  ``tracer`` counts the call
    (``truthtable.minimizations``).
    """
    if not 1 <= nv <= MAX_VARS:
        raise InvalidSpecError(
            f"truth tables cover 1..{MAX_VARS} variables, not {nv}"
        )
    resolve_tracer(tracer).count("truthtable.minimizations")
    on = 0
    for code in onset:
        on |= 1 << code
    care = on & ~dc
    if not care:
        return 0
    columns = _prime_columns(nv, on | dc, care)
    rows = []
    bits = care
    while bits:
        bit = bits & -bits
        bits ^= bit
        row = 0
        for i, column in enumerate(columns):
            if column & bit:
                row |= 1 << i
        rows.append(row)
    return bit_count(_min_cover(rows))
