"""Tests for the packed bulk cube kernel.

The kernel's primitives are pinned against the legacy per-cube int
implementations in :mod:`repro.cubes.cube` on hypothesis-generated
covers, including spaces wider than one 64-bit word, so solver output
stays byte-stable.
"""

import itertools
import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cubes import Space
from repro.cubes import cube as legacy
from repro.cubes.bulk import active_kernel

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
    """The kernel replicates the per-cube int implementations."""

    @SETTINGS
    @given(problems())
    def test_row_masks_match_cube_functions(self, problem):
        space, cover, pivot = problem
        kernel = active_kernel()
        packed = kernel.pack(space, cover)
        assert kernel.void_mask(space, packed) == [
            legacy.is_void(space, c) for c in cover
        ]
        assert kernel.contains_rows(space, packed, pivot) == [
            legacy.contains(c, pivot) for c in cover
        ]
        assert kernel.contained_rows(space, packed, pivot) == [
            legacy.contains(pivot, c) for c in cover
        ]
        assert kernel.or_fold(space, packed) == legacy.supercube(cover)
        assert kernel.intersects_any(space, packed, pivot) == any(
            legacy.intersect(space, c, pivot) for c in cover
        )

    @SETTINGS
    @given(problems())
    def test_cofactor_and_absorb_match(self, problem):
        space, cover, pivot = problem
        kernel = active_kernel()
        packed = kernel.pack(space, cover)
        lifted = space.universe & ~pivot
        assert kernel.cofactor_cube(space, packed, pivot) == [
            c | lifted for c in cover if legacy.intersect(space, c, pivot)
        ]
        assert kernel.absorb(space, kernel.pack(space, cover)) == (
            legacy.absorb(list(cover))
        )

    @SETTINGS
    @given(problems())
    def test_minterm_count_matches_enumeration(self, problem):
        space, cover, _ = problem
        total = 1
        for size in space.part_sizes:
            total *= size
        if total > 2048:
            return  # enumeration too large
        kernel = active_kernel()
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
        assert kernel.minterm_count(space, kernel.pack(space, cover)) == count


def test_numpy_is_never_imported():
    """The cube kernel is pure Python: a Table I row leaves numpy
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
