"""The truth-table scorer's prime columns against the per-cube scan
they replaced.

:func:`repro.espresso.truthtable._prime_columns` finds the primes of a
function one set of free variables at a time, with a few ANDs and
shifts per set.  ``ScanTables`` and ``scan_columns`` below are the
scan it replaced, verbatim: a table of every cube's minterm mask, and
a pass over every cube that keeps the implicants no raise keeps inside
the function.  The tests pin the new columns to the scan's, list-equal,
on random functions of 1-7 variables (beyond the 5 variables
``exact_minimize`` can check at random) and on functions one cube
covers; ``tests/test_truthtable.py`` pins them on every function quick
Table I's ENC minimizes.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cubes import Space
from repro.espresso.truthtable import MAX_VARS, _prime_columns, cover_size


# -- the per-cube scan ---------------------------------------------------
class ScanTables:
    """The lookup tables of one ``nv``, built on first use."""

    def __init__(self, nv: int) -> None:
        size = 1 << nv
        self.space = Space.binary(nv)
        self.full = (1 << size) - 1
        #: cube index -> minterm mask; part p's field is bits 2p, 2p+1
        self.tt = [self.full]
        for part in range(nv):
            shift = nv - 1 - part  # part 0 is the code's MSB
            ones = sum(1 << m for m in range(size) if m >> shift & 1)
            zeros = self.full & ~ones
            self.tt = [
                t & field
                for field in (0, zeros, ones, self.full)
                for t in self.tt
            ]
        #: every non-void cube
        self.cubes = [c for c, t in enumerate(self.tt) if t]

    def blocked(self, off: int):
        """``blocked(cube)``: the raise bits of ``cube`` whose grown cube
        meets the minterm mask ``off``."""
        tt = self.tt
        universe = self.space.universe

        def blocked(cube: int) -> int:
            hit = 0
            free = universe & ~cube
            while free:
                bit = free & -free
                free ^= bit
                if tt[cube | bit] & off:
                    hit |= bit
            return hit

        return blocked


SCAN_TABLES = {}


def scan_columns(nv, on, dc):
    """The care minterms of every prime of ``on | dc``, sorted: an
    implicant no raise keeps one."""
    if nv not in SCAN_TABLES:
        SCAN_TABLES[nv] = ScanTables(nv)
    tables = SCAN_TABLES[nv]
    tt = tables.tt
    care = on & ~dc
    outside = tables.full & ~(on | dc)
    blocked = tables.blocked(outside)
    universe = tables.space.universe
    return sorted({
        tt[cube] & care
        for cube in tables.cubes
        if tt[cube] & care
        and not tt[cube] & outside
        and blocked(cube) == universe & ~cube
    })


def mask(codes):
    out = 0
    for code in codes:
        out |= 1 << code
    return out


def assert_columns_match(nv, onset, dc):
    on = mask(onset)
    assert _prime_columns(nv, on | dc, on & ~dc) == scan_columns(nv, on, dc)


# -- random functions ----------------------------------------------------
@st.composite
def functions(draw):
    """(nv, onset codes in a random order, don't-care mask)."""
    nv = draw(st.integers(min_value=1, max_value=MAX_VARS))
    rnd = draw(st.randoms(use_true_random=False))
    size = 1 << nv
    onset = rnd.sample(range(size), rnd.randint(0, size))
    density = rnd.random()
    dc = sum(1 << c for c in range(size) if rnd.random() < density)
    if rnd.random() < 0.5:  # constraint functions: dc = unused codes
        dc &= ~mask(onset)
    return nv, onset, dc


@settings(max_examples=200, deadline=None)
@example(function=(1, [1], 0))
@example(function=(7, [c for c in range(128) if bin(c).count("1") % 2], 0))
@example(function=(7, list(range(128)), 0))
@example(function=(6, [5, 40], (1 << 64) - 1 & ~(1 << 5 | 1 << 40)))
@given(function=functions())
def test_random_functions(function):
    assert_columns_match(*function)


# -- one-cube functions --------------------------------------------------
ONE_CUBE = [
    (1, [0], 0),
    (3, [5], 0),
    (4, [2, 3, 6, 7], 0),  # the members fill the face --1-
    (4, [0, 15], mask(range(1, 15))),  # the rest of the space is dc
    (5, [1, 9, 17], mask([25])),  # their face {1, 9, 17, 25}, 25 a dc
    (7, [127], 0),
    (7, list(range(64, 128)), 0),
    (7, [0, 127], ((1 << 128) - 1) & ~mask([0, 127])),
]


@pytest.mark.parametrize("nv, onset, dc", ONE_CUBE)
def test_one_cube_functions(nv, onset, dc):
    """The members' face is a prime, and it alone covers them."""
    assert_columns_match(nv, onset, dc)
    assert cover_size(nv, onset, dc) == 1
