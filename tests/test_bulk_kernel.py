"""Tests for the cube-list primitives of :mod:`repro.cubes.bulk`.

The primitives are pinned against the per-cube int
implementations in :mod:`repro.cubes.cube` on hypothesis-generated
covers, including spaces wider than one 64-bit word, so solver output
stays byte-stable.  EXPAND's column-wise blocking check is pinned
against the row scan it replaced, on random covers and on every call
Table II's minimizations make.
"""

import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cubes import Space
from repro.cubes import cube as legacy
from repro.cubes import bulk
from repro.encoding import derive_face_constraints
from repro.espresso import espresso
from repro.fsm import TABLE2_FSMS, load_benchmark
from repro.stateassign import assign_states

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def spaces(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    sizes = draw(
        st.lists(
            st.integers(min_value=2, max_value=5), min_size=n, max_size=n
        )
    )
    if draw(st.booleans()):
        sizes = sizes + [4] * 16  # > 64 bits: wider than one machine word
    return Space(sizes)


def _draw_cube(draw, space, allow_void):
    cube = 0
    for size, offset in zip(space.part_sizes, space.offsets):
        low = 0 if allow_void else 1
        field = draw(st.integers(min_value=low, max_value=(1 << size) - 1))
        cube |= field << offset
    return cube


@st.composite
def problems(draw):
    """(space, cover, pivot cube) for the primitive checks."""
    space = draw(spaces())
    n = draw(st.integers(min_value=0, max_value=8))
    allow_void = draw(st.booleans())
    cover = [_draw_cube(draw, space, allow_void) for _ in range(n)]
    pivot = _draw_cube(draw, space, allow_void=False)
    return space, cover, pivot


class TestLegacyEquivalence:
    """The primitives replicate the per-cube int implementations."""

    @SETTINGS
    @given(problems())
    def test_row_masks_match_cube_functions(self, problem):
        space, cover, pivot = problem
        assert bulk.contained_rows(cover, pivot) == [
            legacy.contains(pivot, c) for c in cover
        ]
        assert bulk.popcounts(cover) == [bin(c).count("1") for c in cover]

    @SETTINGS
    @given(problems())
    def test_cofactor_and_absorb_match(self, problem):
        space, cover, pivot = problem
        before = list(cover)
        lifted = space.universe & ~pivot
        assert bulk.cofactor_cube(space, cover, pivot) == [
            c | lifted for c in cover if legacy.intersect(space, c, pivot)
        ]
        assert bulk.absorb(cover) == legacy.absorb(list(cover))
        assert cover == before  # neither sorts nor edits its argument

    @SETTINGS
    @given(problems())
    def test_minterm_count_matches_enumeration(self, problem):
        space, cover, _ = problem
        total = 1
        for size in space.part_sizes:
            total *= size
        if total > 2048:
            return  # enumeration too large
        count = sum(
            1
            for values in itertools.product(
                *(range(size) for size in space.part_sizes)
            )
            if any(
                legacy.contains(c, space.minterm(list(values)))
                for c in cover
            )
        )
        assert bulk.minterm_count(space, cover) == count


def row_scan_blocked(space, off, cube):
    """The row-scan blocking check EXPAND ran before the column-wise
    :func:`repro.cubes.bulk.blocker`, verbatim: the oracle of the tests
    below."""
    masks = space.part_masks
    blocked = 0
    for o in off:
        meet = o & cube
        block_part = -1
        for p, m in enumerate(masks):
            if not meet & m:
                if block_part >= 0:
                    block_part = -2
                    break
                block_part = p
        if block_part >= 0:
            blocked |= o & masks[block_part]
    return blocked


def oracle_blocker(space, off):
    return lambda cube: row_scan_blocked(space, off, cube)


@st.composite
def blocking_problems(draw):
    """(space, off-set, cubes): off rows may be void, the off-set may
    be empty, the cubes EXPAND asks about are not void."""
    space = draw(spaces())
    n = draw(st.integers(min_value=0, max_value=24))
    off = [
        _draw_cube(draw, space, allow_void=draw(st.booleans()))
        for _ in range(n)
    ]
    cubes = [_draw_cube(draw, space, allow_void=False) for _ in range(6)]
    return space, off, cubes


@st.composite
def minimize_problems(draw):
    """(space, on-set, dc-set) small enough for a quick espresso."""
    n = draw(st.integers(min_value=1, max_value=4))
    space = Space(
        draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
    )
    onset = [
        _draw_cube(draw, space, allow_void=False)
        for _ in range(draw(st.integers(min_value=1, max_value=10)))
    ]
    dcset = [
        _draw_cube(draw, space, allow_void=False)
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    return space, onset, dcset


class TestBlockerAgainstRowScan:
    """:func:`repro.cubes.bulk.blocker` gives the row scan's blocked
    bits."""

    @settings(max_examples=200, deadline=None)
    @given(blocking_problems())
    def test_random_covers(self, problem):
        space, off, cubes = problem
        blocked = bulk.blocker(space, off)
        for cube in cubes:
            assert blocked(cube) == row_scan_blocked(space, off, cube)

    @settings(max_examples=60, deadline=None)
    @given(minimize_problems())
    def test_espresso_list_equal_under_row_scan(self, problem):
        space, onset, dcset = problem
        want = espresso(space, onset, dcset)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bulk, "blocker", oracle_blocker)
            got = espresso(space, onset, dcset)
        assert got == want


def _table2_golden_sizes():
    text = (Path(__file__).resolve().parents[1] / ".table2_full.txt").read_text()
    return {
        m.group(1): {"nova_ih": int(m.group(2)), "picola": int(m.group(3))}
        for m in re.finditer(
            r"^(\w+): nova_ih=(\d+) nova_ioh=\d+ picola=(\d+)$", text, re.M
        )
    }


@pytest.mark.parametrize("name", TABLE2_FSMS)
def test_table2_minimization_blocks_as_row_scan(name, monkeypatch):
    """Every cube EXPAND visits while espresso minimizes the encoded
    PLA of a Table II machine (reference draw, NOVA-ih and PICOLA
    encodings) gets the row scan's blocked bits, so the two-level
    sizes are the committed golden's."""
    real = bulk.blocker
    calls = []

    def checking_blocker(space, off):
        fast = real(space, off)

        def blocked(cube):
            want = row_scan_blocked(space, off, cube)
            calls.append(fast(cube) == want)
            return want

        return blocked

    # espresso looks ``blocker`` up on the bulk module at each call
    monkeypatch.setattr(bulk, "blocker", checking_blocker)
    fsm = load_benchmark(name, seed=0)
    cset = derive_face_constraints(fsm)
    golden = _table2_golden_sizes()[name]
    for method in ("nova_ih", "picola"):
        result = assign_states(fsm, method, seed=1, constraints=cset)
        assert result.size == golden[method]
    assert calls and all(calls)


def test_numpy_is_never_imported():
    """The cube primitives are pure Python: a Table I row leaves numpy
    unloaded, which keeps its start-up time and memory out of every
    run."""
    script = (
        "import sys\n"
        "import repro\n"
        "from repro.harness import run_table1\n"
        "run_table1(['lion9'])\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == "False"
