"""EXPAND over a column-wise on-set against the row-wise pass it replaced.

:mod:`repro.espresso.expand` holds the on-set column-wise: one int
mask of rows per literal bit, the rows not yet swallowed as one int,
and each raise round scored with popcounts.  The functions below are
the row-wise pass as it ran before, verbatim: per cube a fresh list of
the remaining rows, every candidate bit scored by a scan of that list,
and the swallowed rows found by a containment scan after each prime.
The tests pin the column-wise EXPAND to it, list-equal, on every EXPAND
call of Table II's minimizations (with LASTGASP run on the same
covers), of Table I's symbolic minimizations and of random covers.
"""

import importlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cubes import Space, bulk, complement
from repro.encoding import derive_face_constraints
from repro.espresso import espresso
from repro.espresso.expand import expand_cube, expand_cubes_with, expand_with
from repro.fsm import TABLE1_FSMS, TABLE2_FSMS, load_benchmark
from repro.stateassign import assign_states

# ``repro.espresso`` the attribute is the function, so look the module up
MINIMIZE = importlib.import_module("repro.espresso.minimize")


# -- the row-wise oracle -------------------------------------------------
def rowwise_best_raise(others, cube, candidates):
    """Covering-directed raise choice among ``candidates`` bits:
    maximize (on-set rows covered by the grown cube, rows admitting
    the bit); first candidate bit (ascending) wins ties.  Returns
    0 when ``candidates`` is 0."""
    best_bit = 0
    best_key = (-1, -1)
    bits = candidates
    while bits:
        bit = bits & -bits
        bits &= bits - 1
        grown_outside = ~(cube | bit)
        covered = 0
        column = 0
        for o in others:
            if o & bit:
                column += 1
            if not o & grown_outside:
                covered += 1
        key = (covered, column)
        if key > best_key:
            best_key = key
            best_bit = bit
    return best_bit


def rowwise_contained_rows(cover, cube):
    """Per row: is the row contained in ``cube`` (row ⊆ cube)?"""
    return [not c & ~cube for c in cover]


def rowwise_expand_cube_with(space, cube, blocked, others):
    free_bits = space.universe & ~cube
    while free_bits:
        candidates = free_bits & ~blocked(cube)
        best_bit = rowwise_best_raise(others, cube, candidates)
        if not best_bit:
            break
        cube |= best_bit
        free_bits &= ~best_bit
    return cube


def rowwise_expand_cubes_with(space, cubes, blocked, others):
    return [
        rowwise_expand_cube_with(space, cube, blocked, others)
        for cube in cubes
    ]


def rowwise_expand_with(space, onset, blocked):
    weights = bulk.popcounts(onset)
    order = sorted(range(len(onset)), key=weights.__getitem__)
    covered = [False] * len(onset)
    primes = []
    for idx in order:
        if covered[idx]:
            continue
        others = [onset[j] for j in order if j != idx and not covered[j]]
        prime = rowwise_expand_cube_with(space, onset[idx], blocked, others)
        swallowed = rowwise_contained_rows(onset, prime)
        for j in order:
            if j != idx and not covered[j] and swallowed[j]:
                covered[j] = True
        primes.append(prime)
    # a later prime can swallow an earlier one
    keep = bulk.dedup_keep_mask(space, primes)
    return [prime for prime, kept in zip(primes, keep) if kept]


# -- checking wrappers -----------------------------------------------------
def checking_expand_with(calls):
    def run(space, onset, blocked):
        got = expand_with(space, onset, blocked)
        calls.append(got == rowwise_expand_with(space, list(onset), blocked))
        return got

    return run


def checking_expand_cubes_with(calls):
    def run(space, cubes, blocked, others):
        got = expand_cubes_with(space, cubes, blocked, others)
        calls.append(
            got == rowwise_expand_cubes_with(space, cubes, blocked, others)
        )
        return got

    return run


@pytest.fixture
def checked(monkeypatch):
    """Per EXPAND entry point: one bool per call, True when the call
    was list-equal to the row-wise oracle."""
    calls = {"expand_with": [], "expand_cubes_with": []}
    monkeypatch.setattr(
        MINIMIZE, "expand_with", checking_expand_with(calls["expand_with"])
    )
    monkeypatch.setattr(
        MINIMIZE,
        "expand_cubes_with",
        checking_expand_cubes_with(calls["expand_cubes_with"]),
    )
    return calls


@pytest.mark.parametrize("name", TABLE2_FSMS)
def test_table2_minimizations_match_rowwise(name, checked, monkeypatch):
    """Every EXPAND of a Table II row's encoded-PLA minimizations
    (reference draw, NOVA-ih and PICOLA encodings), and of LASTGASP
    run on the same PLAs."""
    real = MINIMIZE.espresso

    def with_lastgasp(space, onset, dcset=(), **kwargs):
        real(space, onset, dcset, use_lastgasp=True)
        return real(space, onset, dcset, **kwargs)

    monkeypatch.setattr(MINIMIZE, "espresso", with_lastgasp)
    fsm = load_benchmark(name, seed=0)
    cset = derive_face_constraints(fsm)
    for method in ("nova_ih", "picola"):
        assign_states(fsm, method, seed=1, constraints=cset)
    assert checked["expand_with"] and all(checked["expand_with"])
    assert checked["expand_cubes_with"] and all(checked["expand_cubes_with"])


def test_table1_symbolic_minimizations_match_rowwise(checked):
    """Every EXPAND of the symbolic minimization of every Table I
    machine."""
    for name in TABLE1_FSMS:
        derive_face_constraints(load_benchmark(name, seed=0))
    assert checked["expand_with"] and all(checked["expand_with"])


# -- random covers ---------------------------------------------------------
@st.composite
def expand_problems(draw):
    """(space, on-set, dc-set): size-1 parts, duplicate on-set cubes
    and an empty on-set are all drawn."""
    n = draw(st.integers(min_value=1, max_value=4))
    space = Space(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))

    def cube():
        c = 0
        for size, offset in zip(space.part_sizes, space.offsets):
            c |= draw(st.integers(1, (1 << size) - 1)) << offset
        return c

    onset = [cube() for _ in range(draw(st.integers(0, 10)))]
    if onset and draw(st.booleans()):
        onset += draw(st.lists(st.sampled_from(onset), max_size=3))
    dcset = [cube() for _ in range(draw(st.integers(0, 3)))]
    return space, onset, dcset


#: two binary parts, the on-set the minterm 00 and the off-set 11: the
#: first round ties its two candidates at (0, 0) and must raise the
#: lower bit, giving 0- rather than -0
TIED = (Space([2, 2]), [0b0101], [0b1010])


@settings(max_examples=150, deadline=None)
@given(expand_problems())
@example(TIED)
@example((Space([1, 2, 1]), [], []))
@example((Space([1, 2, 1]), [0b1011, 0b1011, 0b0111], []))
def test_random_covers_match_rowwise(problem):
    space, onset, dcset = problem
    blocked = bulk.blocker(space, complement(space, onset + dcset))
    assert expand_with(space, onset, blocked) == rowwise_expand_with(
        space, onset, blocked
    )
    for i, cube in enumerate(onset):
        others = onset[:i] + onset[i + 1:]
        assert expand_cubes_with(
            space, [cube], blocked, others
        ) == rowwise_expand_cubes_with(space, [cube], blocked, others)
    assert expand_cubes_with(
        space, onset, blocked, onset
    ) == rowwise_expand_cubes_with(space, onset, blocked, onset)


@settings(max_examples=60, deadline=None)
@given(expand_problems(), st.booleans())
def test_random_espresso_match_rowwise(problem, use_lastgasp):
    space, onset, dcset = problem
    got = espresso(space, onset, dcset, use_lastgasp=use_lastgasp)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MINIMIZE, "expand_with", rowwise_expand_with)
        mp.setattr(MINIMIZE, "expand_cubes_with", rowwise_expand_cubes_with)
        want = espresso(space, onset, dcset, use_lastgasp=use_lastgasp)
    assert got == want


def test_tied_round_takes_lowest_bit():
    space, onset, off = TIED
    blocked = bulk.blocker(space, off)
    assert expand_with(space, onset, blocked) == [0b0111]
    assert expand_cube(space, onset[0], off) == 0b0111
    assert bulk.choose_raise(
        bulk.columns(space, []), 0, 0b1010, 0b1010
    ) == 0b0010
