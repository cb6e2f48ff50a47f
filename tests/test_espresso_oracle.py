"""espresso() without its ESSENTIALS split and final IRREDUNDANT pass.

Both steps ran right after an IRREDUNDANT pass with the same
don't-cares, so they could never change a cover: every cube left by
IRREDUNDANT is relatively essential (the split put none aside), and
IRREDUNDANT is idempotent (the final pass dropped nothing and kept the
order).  :func:`espresso_with_essentials` is the loop as it ran with
them; the tests below pin :func:`repro.espresso.espresso` to it,
list-equal, on every minimization of Table II, on the symbolic
minimization of every Table I machine and on random covers with
don't-cares.
"""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cubes import Space, absorb, bulk, complement, cover_contains_cube
from repro.encoding import derive_face_constraints
from repro.espresso import cover_cost, espresso, irredundant, reduce_cover
from repro.espresso.expand import expand_with
from repro.espresso.minimize import MAX_ITERATIONS, _lastgasp
from repro.fsm import TABLE1_FSMS, TABLE2_FSMS, load_benchmark
from repro.stateassign import assign_states

# ``repro.espresso`` the attribute is the function, so look the modules up
MINIMIZE = importlib.import_module("repro.espresso.minimize")
SYMBOLIC = importlib.import_module("repro.encoding.symbolic")


def relatively_essential(space, onset, dcset):
    """Split ``onset`` into (relatively essential, redundant) cubes."""
    essential, redundant = [], []
    for idx, cube in enumerate(onset):
        rest = onset[:idx] + onset[idx + 1 :] + list(dcset)
        if cover_contains_cube(space, rest, cube):
            redundant.append(cube)
        else:
            essential.append(cube)
    return essential, redundant


def espresso_with_essentials(
    space, onset, dcset=(), *, use_lastgasp=True,
    max_iterations=MAX_ITERATIONS,
):
    """The espresso loop with the ESSENTIALS split after the first
    IRREDUNDANT and a final IRREDUNDANT over essentials + cover."""
    dc = list(dcset)
    cover = absorb(list(onset))
    if not cover:
        return []
    blocked = bulk.blocker(space, complement(space, cover + dc))
    cover = expand_with(space, cover, blocked)
    cover = irredundant(space, cover, dc)
    essentials, rest = relatively_essential(space, cover, dc)
    if essentials and rest:
        cover = rest
        dc = dc + essentials
    else:
        essentials = []
    best = cover_cost(space, cover)
    for _ in range(max_iterations):
        cover = reduce_cover(space, cover, dc)
        cover = expand_with(space, cover, blocked)
        cover = irredundant(space, cover, dc)
        cost = cover_cost(space, cover)
        if cost >= best:
            break
        best = cost
    if use_lastgasp:
        improved = _lastgasp(space, cover, dc, blocked)
        if improved is not None:
            cover = improved
    return irredundant(space, essentials + cover, list(dcset))


def checking(real, calls):
    """``real`` espresso, asserting each result against the oracle."""

    def run(space, onset, dcset=(), **kwargs):
        got = real(space, onset, dcset, **kwargs)
        want = espresso_with_essentials(
            space, onset, dcset,
            use_lastgasp=kwargs.get("use_lastgasp", True),
        )
        calls.append(got == want)
        return got

    return run


@pytest.mark.parametrize("name", TABLE2_FSMS)
def test_table2_minimizations_match_oracle(name, monkeypatch):
    """Every encoded-PLA minimization of a Table II row (reference
    draw, NOVA-ih and PICOLA encodings)."""
    calls = []
    monkeypatch.setattr(
        MINIMIZE, "espresso", checking(espresso, calls)
    )
    fsm = load_benchmark(name, seed=0)
    cset = derive_face_constraints(fsm)
    for method in ("nova_ih", "picola"):
        assign_states(fsm, method, seed=1, constraints=cset)
    assert len(calls) == 2 and all(calls)


def test_table1_symbolic_minimizations_match_oracle(monkeypatch):
    """The symbolic minimization of every Table I machine that runs the
    full espresso loop (all but the >64-state merge)."""
    calls = []
    monkeypatch.setattr(
        SYMBOLIC, "espresso", checking(espresso, calls)
    )
    fsms = [load_benchmark(name, seed=0) for name in TABLE1_FSMS]
    for fsm in fsms:
        derive_face_constraints(fsm)
    limit = SYMBOLIC._FULL_ESPRESSO_STATE_LIMIT
    assert len(calls) == sum(fsm.n_states <= limit for fsm in fsms)
    assert all(calls)


def _cube(draw, space):
    cube = 0
    for size, offset in zip(space.part_sizes, space.offsets):
        cube |= draw(st.integers(1, (1 << size) - 1)) << offset
    return cube


@st.composite
def problems(draw):
    """(space, on-set, dc-set) small enough for a quick espresso."""
    n = draw(st.integers(min_value=1, max_value=4))
    space = Space(draw(st.lists(st.integers(2, 4), min_size=n, max_size=n)))
    onset = [_cube(draw, space) for _ in range(draw(st.integers(1, 10)))]
    dcset = [_cube(draw, space) for _ in range(draw(st.integers(0, 4)))]
    return space, onset, dcset


@settings(max_examples=80, deadline=None)
@given(problems(), st.booleans())
def test_random_covers_match_oracle(problem, use_lastgasp):
    space, onset, dcset = problem
    assert espresso(
        space, onset, dcset, use_lastgasp=use_lastgasp
    ) == espresso_with_essentials(
        space, onset, dcset, use_lastgasp=use_lastgasp
    )
