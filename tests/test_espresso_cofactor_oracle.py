"""IRREDUNDANT, REDUCE and EXPAND's dedup over a column-wise cover
against the row-wise passes they replaced.

:func:`repro.espresso.irredundant` and :func:`repro.espresso.reduce_cover`
hold the cover and the don't-cares column-wise and find the rows that
meet a cube with :func:`repro.cubes.bulk.meeting_rows`;
:func:`repro.cubes.bulk.dedup_keep_mask` finds the rows containing a
row as the AND of its bits' columns.  The functions below are the
row-wise passes as they ran before, verbatim: per cube a fresh list of
the rest of the cover, cofactored by a scan of every row, and a dedup
that tests every pair of rows.  The tests pin the column-wise passes
to them, list-equal in their results and in every cofactor handed to
tautology or complement, on every call of Table II's minimizations
(with LASTGASP run on the same PLAs), of Table I's symbolic
minimizations and of random covers.  The cofactors are compared as
well because a row that does not meet the cube changes neither
answer: only the lists show it.
"""

import importlib
import sys
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cubes import Space, bulk, complement, cover_contains_cube, supercube
from repro.encoding import derive_face_constraints
from repro.espresso import espresso, irredundant, reduce_cover
from repro.fsm import TABLE1_FSMS, TABLE2_FSMS, load_benchmark
from repro.stateassign import assign_states

# the package attributes are the functions, so look the modules up
MINIMIZE = importlib.import_module("repro.espresso.minimize")
IRREDUNDANT = importlib.import_module("repro.espresso.irredundant")
REDUCE = importlib.import_module("repro.espresso.reduce")
TAUTOLOGY = importlib.import_module("repro.cubes.tautology")


# -- the row-wise oracle -------------------------------------------------
def rowwise_irredundant(space, onset, dcset=(), tracer=None):
    weights = bulk.popcounts(onset)
    order = sorted(range(len(onset)), key=weights.__getitem__)
    keep = [onset[i] for i in order]
    dc = list(dcset)
    i = 0
    while i < len(keep):
        rest = keep[:i] + keep[i + 1 :] + dc
        if cover_contains_cube(space, rest, keep[i]):
            del keep[i]
        else:
            i += 1
    return keep


def rowwise_reduce_cube(space, cube, rest):
    comp = complement(space, bulk.cofactor_cube(space, rest, cube))
    if not comp:
        return 0
    return cube & supercube(comp)


def rowwise_reduce_cover(space, onset, dcset=(), tracer=None):
    cubes = list(onset)
    dc = list(dcset)
    weights = bulk.popcounts(cubes)
    order = sorted(
        range(len(onset)), key=weights.__getitem__, reverse=True
    )
    for idx in order:
        rest = cubes[:idx] + cubes[idx + 1 :] + dc
        reduced = rowwise_reduce_cube(space, cubes[idx], rest)
        if reduced:
            cubes[idx] = reduced
    return cubes


def rowwise_dedup_keep_mask(cover):
    keep = []
    for i, c in enumerate(cover):
        drop = False
        for j, d in enumerate(cover):
            if j != i and not c & ~d and (d != c or j < i):
                drop = True
                break
        keep.append(not drop)
    return keep


# -- paired runs -----------------------------------------------------------
@contextmanager
def recorded(module, name):
    """Log the cover passed to each call of ``module.name``."""
    log = []
    real = getattr(module, name)

    def run(space, cover):
        log.append(list(cover))
        return real(space, cover)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, run)
        yield log


def irredundant_pair(space, onset, dcset=(), tracer=None):
    """(column-wise, row-wise) IRREDUNDANT of one cover, each as
    (result, the cofactors it asked tautology about)."""
    with recorded(IRREDUNDANT, "tautology") as log:
        got = irredundant(space, onset, dcset, tracer=tracer)
    with recorded(TAUTOLOGY, "tautology") as want_log:
        want = rowwise_irredundant(space, list(onset), list(dcset))
    return (got, log), (want, want_log)


def reduce_pair(space, onset, dcset=(), tracer=None):
    """(column-wise, row-wise) REDUCE of one cover, each as
    (result, the cofactors it complemented)."""
    with recorded(REDUCE, "complement") as log:
        got = reduce_cover(space, onset, dcset, tracer=tracer)
    with recorded(sys.modules[__name__], "complement") as want_log:
        want = rowwise_reduce_cover(space, list(onset), list(dcset))
    return (got, log), (want, want_log)


def checking(pair, calls):
    def run(space, onset, dcset=(), tracer=None):
        got, want = pair(space, onset, dcset, tracer=tracer)
        calls.append(got == want)
        return got[0]

    return run


def checking_dedup(calls):
    real = bulk.dedup_keep_mask

    def run(space, cover):
        got = real(space, cover)
        calls.append(got == rowwise_dedup_keep_mask(cover))
        return got

    return run


@pytest.fixture
def checked(monkeypatch):
    """Per pass: one bool per call, True when the call's result and
    its cofactors were list-equal to the row-wise oracle's."""
    calls = {"irredundant": [], "reduce_cover": [], "dedup": []}
    monkeypatch.setattr(
        MINIMIZE, "irredundant",
        checking(irredundant_pair, calls["irredundant"]),
    )
    monkeypatch.setattr(
        MINIMIZE, "reduce_cover",
        checking(reduce_pair, calls["reduce_cover"]),
    )
    monkeypatch.setattr(bulk, "dedup_keep_mask", checking_dedup(calls["dedup"]))
    return calls


def _all_matched(calls):
    return all(results and all(results) for results in calls.values())


@pytest.mark.parametrize("name", TABLE2_FSMS)
def test_table2_minimizations_match_rowwise(name, checked, monkeypatch):
    """Every IRREDUNDANT, REDUCE and dedup of a Table II row's
    encoded-PLA minimizations (reference draw, NOVA-ih and PICOLA
    encodings), and of LASTGASP run on the same PLAs."""
    real = MINIMIZE.espresso

    def with_lastgasp(space, onset, dcset=(), **kwargs):
        real(space, onset, dcset, use_lastgasp=True)
        return real(space, onset, dcset, **kwargs)

    monkeypatch.setattr(MINIMIZE, "espresso", with_lastgasp)
    fsm = load_benchmark(name, seed=0)
    cset = derive_face_constraints(fsm)
    for method in ("nova_ih", "picola"):
        assign_states(fsm, method, seed=1, constraints=cset)
    assert _all_matched(checked)


def test_table1_symbolic_minimizations_match_rowwise(checked):
    """Every IRREDUNDANT, REDUCE and dedup of the symbolic
    minimization of every Table I machine."""
    for name in TABLE1_FSMS:
        derive_face_constraints(load_benchmark(name, seed=0))
    assert _all_matched(checked)


# -- random covers ---------------------------------------------------------
@st.composite
def cover_problems(draw):
    """(space, on-set, dc-set): size-1 parts, duplicate on-set cubes,
    an empty on-set and void cubes in either set are all drawn."""
    n = draw(st.integers(min_value=1, max_value=4))
    space = Space(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))

    def cube(void_ok):
        low = 0 if void_ok and draw(st.integers(0, 7)) == 0 else 1
        c = 0
        for size, offset in zip(space.part_sizes, space.offsets):
            c |= draw(st.integers(low, (1 << size) - 1)) << offset
        return c

    onset = [cube(False) for _ in range(draw(st.integers(0, 10)))]
    if onset and draw(st.booleans()):
        onset += draw(st.lists(st.sampled_from(onset), max_size=3))
    if draw(st.booleans()):
        onset.append(cube(True))
    dcset = [cube(True) for _ in range(draw(st.integers(0, 4)))]
    return space, onset, dcset


#: two binary parts: REDUCE takes ``1-`` first and shrinks it to ``10``
#: against ``-1``; ``-1`` then meets ``10`` in no row, so its cofactor is
#: empty only when the shrunk row's columns were updated (``-1`` stays
#: whole either way)
SHRUNK = (Space([2, 2]), [0b1110, 0b1011], [])

#: the universe and a cube void in its second part
VOID = (Space([2, 2]), [0b1111, 0b0010], [])


@settings(max_examples=200, deadline=None)
@given(cover_problems())
@example(SHRUNK)
@example(VOID)
@example((Space([1, 2, 1]), [], [0b0000]))
@example((Space([3, 2]), [0b11011, 0b01110, 0b01110], [0b00101]))
def test_random_covers_match_rowwise(problem):
    space, onset, dcset = problem
    got, want = irredundant_pair(space, onset, dcset)
    assert got == want
    got, want = reduce_pair(space, onset, dcset)
    assert got == want
    assert bulk.dedup_keep_mask(space, onset) == rowwise_dedup_keep_mask(
        onset
    )


@settings(max_examples=60, deadline=None)
@given(cover_problems(), st.booleans())
def test_random_espresso_match_rowwise(problem, use_lastgasp):
    space, onset, dcset = problem
    got = espresso(space, onset, dcset, use_lastgasp=use_lastgasp)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MINIMIZE, "irredundant", rowwise_irredundant)
        mp.setattr(MINIMIZE, "reduce_cover", rowwise_reduce_cover)
        mp.setattr(bulk, "dedup_keep_mask",
                   lambda space, cover: rowwise_dedup_keep_mask(cover))
        want = espresso(space, onset, dcset, use_lastgasp=use_lastgasp)
    assert got == want


def test_reduced_row_leaves_its_columns():
    space, onset, dcset = SHRUNK
    got, want = reduce_pair(space, onset, dcset)
    assert got == want == ([0b0110, 0b1011], [[0b1011], []])


def test_void_cube_is_redundant():
    """A void cube covers no minterm, so IRREDUNDANT drops it, as it
    drops a cube whose cofactor of the rest is a tautology."""
    space, onset, dcset = VOID
    assert irredundant(space, onset, dcset) == [0b1111]
    assert irredundant(space, [0b0010], [0b0001]) == []
