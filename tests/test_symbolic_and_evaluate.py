"""Tests for symbolic constraint derivation and encoding evaluation."""

import hashlib
import json
import random

import pytest

from repro.cubes import bulk, cover_contains_cube
from repro.encoding import (
    ConstraintSet,
    Encoding,
    FaceConstraint,
    constraint_function,
    constraints_from_cover,
    cubes_for_constraint,
    derive_face_constraints,
    evaluate_encoding,
    minimize_symbolic_cover,
    satisfied_dichotomies,
)
from repro.encoding.symbolic import _fast_symbolic_merge
from repro.fsm import (
    TABLE1_FSMS,
    benchmark_names,
    fsm_to_symbolic_cover,
    load_benchmark,
    parse_kiss,
)
from repro.obs import Tracer, set_tracer
from repro.solvers import get_solver

# two states behave identically on input 0- (both go to 'hub' with
# output 1): symbolic minimization must merge them into one implicant,
# yielding the face constraint {a, b}
MERGEABLE = """
.i 2
.o 1
.r a
0- a hub 1
1- a a 0
0- b hub 1
1- b b 0
0- hub hub 0
1- hub a 0
"""


class TestSymbolicDerivation:
    def test_mergeable_states_become_constraint(self):
        fsm = parse_kiss(MERGEABLE)
        cset = derive_face_constraints(fsm)
        groups = [c.symbols for c in cset.nontrivial()]
        assert frozenset({"a", "b"}) in groups

    def test_constraint_weights_count_implicants(self):
        fsm = parse_kiss(MERGEABLE)
        cset = derive_face_constraints(fsm)
        for c in cset.nontrivial():
            assert c.weight >= 1.0

    def test_minimized_cover_still_covers(self):
        fsm = parse_kiss(MERGEABLE)
        space, original, states = fsm_to_symbolic_cover(fsm)
        space2, minimized, states2 = minimize_symbolic_cover(fsm)
        assert space == space2
        from repro.cubes import cover_contains_cube

        for cube in original:
            assert cover_contains_cube(space, minimized, cube)
        for cube in minimized:
            assert cover_contains_cube(space, original, cube)

    def test_constraints_from_cover_rejects_bad_states(self):
        fsm = parse_kiss(MERGEABLE)
        space, cover, states = fsm_to_symbolic_cover(fsm)
        with pytest.raises(ValueError):
            constraints_from_cover(space, cover, states + ["extra"])

    def test_fast_merge_equivalent_to_cover(self):
        fsm = load_benchmark("dk16")
        space, cover, states = fsm_to_symbolic_cover(fsm)
        merged = _fast_symbolic_merge(space, list(cover), len(states))
        from repro.cubes import cover_contains_cube

        assert len(merged) <= len(cover)
        for cube in cover:
            assert cover_contains_cube(space, merged, cube)
        for cube in merged:
            assert cover_contains_cube(space, cover, cube)

    def test_benchmark_constraint_counts_plausible(self):
        for name in ["bbara", "lion9", "keyb"]:
            cset = derive_face_constraints(load_benchmark(name))
            assert 1 <= len(cset.nontrivial()) <= 60


def greedy_merge_reference(space, cover, n_states, dc):
    """The merge's earlier whole-cube loop, kept as the oracle: grow
    each merged cube's state literal one value at a time, accepting a
    value when the grown cube is inside the whole care cover.  Returns
    the cover and the number of containment checks it made."""
    state_part = space.num_parts - 2
    result = bulk.absorb(bulk.merge_part(space, cover, state_part))
    offset = space.offsets[state_part]
    care = list(cover) + list(dc)
    expanded = []
    checks = 0
    for cube in result:
        for value in range(n_states):
            bit = 1 << (offset + value)
            if cube & bit:
                continue
            checks += 1
            candidate = cube | bit
            if cover_contains_cube(space, care, candidate):
                cube = candidate
        expanded.append(cube)
    return bulk.absorb(expanded), checks


def constraint_digest(cset):
    text = json.dumps([
        list(cset.symbols),
        [[sorted(c.symbols), c.weight] for c in cset],
    ])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def tracer():
    yield set_tracer(Tracer())
    set_tracer(None)


class TestFastMergeDifferential:
    """The per-state-value slice tests decide exactly what the
    whole-cube greedy loop decided, on every library FSM."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_same_cover_as_greedy_loop(self, name, tracer):
        space, cover, dc, states = fsm_to_symbolic_cover(
            load_benchmark(name, seed=0), with_dc=True
        )
        expected, checks = greedy_merge_reference(
            space, cover, len(states), dc
        )
        assert _fast_symbolic_merge(space, cover, len(states), dc) == expected
        assert tracer.counter("symbolic.merge.checks") == checks

    # recorded with the greedy loop, which needs ~3 s per scf draw
    @pytest.mark.parametrize("draw,digest", [
        (0, "744d84c4003a787f990dd4d345ef9bbc8555cecf52ef58bfc3f18b69208fb8f8"),
        (1, "498dd900b9082cf42f5fb28bc6a1b38f2a36671c02f3637b47fe3ac1dc9bcd8c"),
        (2, "984144725783a4636f7136ea0c589e2560a0b18ea13f896f1140ce3cee720ef7"),
    ])
    def test_scf_constraints_pinned(self, draw, digest):
        cset = derive_face_constraints(load_benchmark("scf", seed=draw))
        assert constraint_digest(cset) == digest

    def test_derivation_is_spanned_and_counted(self, tracer):
        derive_face_constraints(load_benchmark("scf", seed=0))
        assert tracer.timings()["symbolic/derive"].n == 1
        assert tracer.counter("symbolic.merge.checks") == 14717


class TestConstraintFunction:
    def enc(self):
        return Encoding(
            ["a", "b", "c", "d", "e"],
            {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4},
            3,
        )

    def test_onset_and_dcset_shapes(self):
        space, onset, dcset = constraint_function(
            self.enc(), FaceConstraint({"a", "b"})
        )
        assert len(onset) == 2
        assert len(dcset) == 3  # codes 5, 6, 7 unused

    def test_satisfied_costs_one_cube(self):
        assert cubes_for_constraint(
            self.enc(), FaceConstraint({"a", "b"})
        ) == 1

    def test_violated_costs_more(self):
        # {a, d} spans face 0--, which contains b and c
        assert cubes_for_constraint(
            self.enc(), FaceConstraint({"a", "d"})
        ) == 2

    def test_dc_codes_reduce_cost(self):
        # {c, e}: face --0 would contain a; with codes 5..7 dc the
        # minimizer can still do it in 2 cubes at worst
        cost = cubes_for_constraint(self.enc(), FaceConstraint({"c", "e"}))
        assert cost <= 2


class TestEvaluateEncoding:
    def test_report_totals(self):
        syms = ["a", "b", "c", "d"]
        cset = ConstraintSet(
            syms, [FaceConstraint({"a", "b"}), FaceConstraint({"a", "c"})]
        )
        enc = Encoding(syms, {"a": 0, "b": 1, "c": 2, "d": 3}, 2)
        report = evaluate_encoding(enc, cset)
        assert report.n_constraints == 2
        assert report.n_satisfied == 2
        assert report.total_cubes == 2
        assert "2/2" in report.summary()

    def test_rejects_non_injective(self):
        syms = ["a", "b"]
        cset = ConstraintSet(syms, [])
        enc = Encoding(syms, {"a": 0, "b": 0}, 1)
        with pytest.raises(ValueError):
            evaluate_encoding(enc, cset)

    def test_satisfied_dichotomies_counts(self):
        syms = ["a", "b", "c", "d"]
        cset = ConstraintSet(syms, [FaceConstraint({"a", "b"})])
        enc = Encoding(syms, {"a": 0, "b": 1, "c": 2, "d": 3}, 2)
        done, total = satisfied_dichotomies(enc, cset)
        assert total == 2  # outsiders c and d
        assert done == 2  # column 0 separates both


def relabelled(encoding, seed):
    """``encoding`` under a seeded automorphism of its code space: a
    bit permutation, then an XOR mask.  Both map every face onto a
    face, so no constraint's function changes its minimum cover."""
    nv = encoding.n_bits
    rnd = random.Random(seed)
    perm = rnd.sample(range(nv), nv)
    mask = rnd.getrandbits(nv)

    def image(code):
        return sum(1 << perm[b] for b in range(nv) if code >> b & 1) ^ mask

    return Encoding(
        list(encoding.symbols),
        {s: image(code) for s, code in encoding.codes.items()},
        nv,
    )


@pytest.mark.parametrize("name", TABLE1_FSMS)
def test_table1_scores_survive_relabelling(name):
    """Metamorphic: relabelling the code space leaves every constraint's
    score, hence every Table I cell, as it was.  PICOLA's and NOVA's
    encodings of the reference draw, each under 16 automorphisms."""
    cset = derive_face_constraints(load_benchmark(name, seed=0))
    for encoding in (
        get_solver("picola").solve(cset).encoding,
        get_solver("nova").solve(cset, options={"seed": 1}).encoding,
    ):
        want = [s.cubes for s in evaluate_encoding(encoding, cset).scores]
        for seed in range(16):
            report = evaluate_encoding(relabelled(encoding, seed), cset)
            assert [s.cubes for s in report.scores] == want, seed


class TestIncompleteSpecification:
    def test_missing_rows_become_dc(self):
        from repro.fsm import parse_kiss

        # state b has no row for input 1: that territory is dc
        kiss = ".i 1\n.o 1\n.r a\n0 a b 1\n1 a a 0\n0 b a 1\n"
        fsm = parse_kiss(kiss)
        space, cover, dc, states = fsm_to_symbolic_cover(
            fsm, with_dc=True
        )
        assert dc, "unspecified territory must appear as don't-care"
        # the dc cube must cover (input=1, state=b, any output)
        from repro.cubes import contains

        b = states.index("b")
        target = space.make_cube(
            [0b10, 1 << b, space.part_masks[-1] >> space.offsets[-1]]
        )
        assert any(contains(d, target) for d in dc)

    def test_dc_outputs_collected(self):
        from repro.fsm import parse_kiss

        kiss = ".i 1\n.o 2\n.r a\n0 a b 1-\n1 a a 00\n0 b a 11\n1 b b 00\n"
        fsm = parse_kiss(kiss)
        space, cover, dc, states = fsm_to_symbolic_cover(
            fsm, with_dc=True
        )
        # row "0 a b 1-": output 1 of that row is dc
        assert any(
            space.field(d, space.num_parts - 1)
            == 1 << (len(states) + 1)
            for d in dc
        )

    def test_minimization_exploits_dc(self):
        from repro.fsm import parse_kiss
        from repro.encoding import minimize_symbolic_cover

        # two states share behaviour on input 0; state b unspecified
        # on input 1 -> rows can merge with a's thanks to dc
        kiss = (
            ".i 1\n.o 1\n.r a\n"
            "0 a hub 1\n1 a a 0\n"
            "0 b hub 1\n"
            "0 hub hub 0\n1 hub a 0\n"
        )
        fsm = parse_kiss(kiss)
        space, minimized, states = minimize_symbolic_cover(fsm)
        cset = constraints_from_cover(space, minimized, states)
        groups = [c.symbols for c in cset.nontrivial()]
        assert frozenset({"a", "b"}) in groups
