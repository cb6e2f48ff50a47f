"""Differential tests: truth-table scoring against :mod:`repro.espresso`.

``repro.espresso.truthtable.cover_size`` must return exactly the cube
count ``len(exact_minimize(...))`` gives for the same single-output
function.  Part (a) draws random functions of 1-7 variables, with
random onset order and random don't-cares.  Part (b) replays every
distinct function that quick Table I's ENC minimizes, over three
solver seeds, and pins its prime columns to the per-cube scan of
``tests/test_truthtable_oracle.py``.
"""

import random

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.baselines import enc as enc_module
from repro.cubes import Space
from repro.encoding.evaluate import cubes_for_codes
from repro.espresso import espresso, exact_minimize
from repro.espresso.truthtable import MAX_VARS, cover_size
from repro.harness import QUICK_FSMS, run_table1
from repro.runtime import InvalidSpecError
from tests.test_truthtable_oracle import assert_columns_match

#: exact_minimize's consensus gets slow beyond this many variables on
#: random functions; fixed cases below pin 6 and 7
EXACT_REFERENCE_VARS = 5

#: shrinking a drawn Random only replays the search for minutes
SETTINGS = settings(
    max_examples=150,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)


def binary_function(nv, onset, dc):
    """(space, onset, dcset) of a function given by its codes."""
    space = Space.binary(nv)

    def minterm(code):
        return space.minterm([code >> (nv - 1 - b) & 1 for b in range(nv)])

    on = [minterm(code) for code in onset]
    dcset = [minterm(code) for code in range(1 << nv) if dc >> code & 1]
    return space, on, dcset


def reference(nv, onset, dc):
    """The cube count of the exact minimizer on the same function."""
    return len(exact_minimize(*binary_function(nv, onset, dc)))


@st.composite
def functions(draw, max_vars=MAX_VARS):
    """(nv, onset codes in a random order, don't-care mask)."""
    nv = draw(st.integers(min_value=1, max_value=max_vars))
    # hypothesis shrinks integers and lists towards small ones; a drawn
    # Random gives functions of every density at every size
    rnd = draw(st.randoms(use_true_random=False))
    size = 1 << nv
    onset = rnd.sample(range(size), rnd.randint(0, size))
    density = rnd.random()
    dc = sum(1 << c for c in range(size) if rnd.random() < density)
    if rnd.random() < 0.5:  # constraint functions: dc = unused codes
        for code in onset:
            dc &= ~(1 << code)
    return nv, onset, dc


@SETTINGS
@given(function=functions(max_vars=EXACT_REFERENCE_VARS))
def test_exact_matches_exact_minimize(function):
    nv, onset, dc = function
    assert cover_size(nv, onset, dc) == reference(nv, onset, dc)


@pytest.mark.parametrize(
    "nv, seed", [(6, 3), (6, 6), (6, 32), (7, 1), (7, 2), (7, 3)]
)
def test_exact_matches_exact_minimize_above_reference_vars(nv, seed):
    """Fixed functions of 6 and 7 variables, beyond the random draw
    above, so the exact path is pinned up to ``MAX_VARS`` too, with
    ENC's cover bound below it."""
    rnd = random.Random(seed)
    size = 1 << nv
    onset = rnd.sample(range(size), size // 3)
    dc = sum(
        1 << c for c in range(size) if c not in onset and rnd.random() < 0.3
    )
    want = reference(nv, onset, dc)
    assert cover_size(nv, onset, dc) == want
    used = ((1 << size) - 1) & ~dc
    assert enc_module.cover_lower_bound(nv, onset, used) <= want


def parity(nv):
    """The even-parity codes of ``nv`` bits: no two share a face
    without an odd code, so each needs its own cube."""
    return [c for c in range(1 << nv) if bin(c).count("1") % 2 == 0]


@st.composite
def constraint_functions(draw, max_members=24):
    """(nv, member codes, unused-code mask) of a face constraint's
    function: the other used codes are its off-set.  Members are
    capped so that the exact minimizer stays fast at 7 variables."""
    nv = draw(st.integers(min_value=2, max_value=MAX_VARS))
    rnd = draw(st.randoms(use_true_random=False))
    size = 1 << nv
    used = rnd.sample(range(size), rnd.randint(2, size))
    onset = rnd.sample(used, rnd.randint(1, min(max_members, len(used) - 1)))
    return nv, onset, sum(1 << c for c in range(size) if c not in used)


@SETTINGS
@example(function=(2, [0, 3], 0))
@example(function=(3, [6, 0, 5, 3], 0))
@example(function=(4, [1, 2], 0b1111111111110000))
@example(function=(7, parity(7), 0))
@example(function=(7, [127, 0, 64], 0b1010 << 60))
# bound 3, minimum 4
@example(function=(4, [10, 8, 3, 5, 13, 2, 12, 6], 0b1000010010))
@given(function=constraint_functions())
def test_enc_lower_bound_below_cover_sizes(function):
    """ENC's cover bound is at most the minimum cover: a move the
    bound rejects could not have been accepted."""
    nv, onset, dc = function
    used = ((1 << (1 << nv)) - 1) & ~dc
    bound = enc_module.cover_lower_bound(nv, onset, used)
    assert bound <= cover_size(nv, onset, dc)


def test_codes_beyond_truth_tables_use_espresso():
    nv = MAX_VARS + 1
    onset = [3, 200, 17, 129, 64, 250]
    unused = sum(1 << code for code in range(100, 180))
    assert cubes_for_codes(nv, onset, unused) == len(espresso(
        *binary_function(nv, onset, unused), use_lastgasp=False
    ))
    with pytest.raises(InvalidSpecError):
        cover_size(nv, onset, unused)


def test_quick_table1_enc_functions(monkeypatch):
    seen = {}
    real = enc_module.cubes_for_codes

    def recording(nv, onset, unused, **kwargs):
        cubes = real(nv, onset, unused, **kwargs)
        seen[nv, tuple(onset), unused] = cubes
        return cubes

    monkeypatch.setattr(enc_module, "cubes_for_codes", recording)
    # ENC minimizes only what its cover bound cannot settle, so one
    # run sees a few thousand functions: three solver seeds, at a
    # budget all rows but keyb converge under, feed the floor
    for seed in (1, 2, 3):
        run_table1(QUICK_FSMS, seed=seed, enc_budget=20000)
    assert len(seen) > 10000
    wrong = [
        (key, cubes)
        for key, cubes in seen.items()
        if reference(*key) != cubes
    ]
    assert not wrong, wrong[:5]
    for nv, onset, unused in seen:
        assert_columns_match(nv, onset, unused)
