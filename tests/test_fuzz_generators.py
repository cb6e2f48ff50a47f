"""The fuzz workload generators (``tests/fuzz.py``): determinism,
structure, family table."""

import hypothesis
import pytest

from repro.encoding import ConstraintSet, Encoding
from tests.fuzz import (
    GENERATORS,
    FuzzCase,
    constraint_sets,
    fuzz_cases,
    generate_case,
)

FAMILIES = sorted(GENERATORS)


class TestRegistry:
    def test_at_least_three_named_families(self):
        assert len(GENERATORS) >= 3

    def test_expected_families_present(self):
        for family in ("random", "fsm", "bounded-length", "grid",
                       "pathological"):
            assert family in GENERATORS


class TestDeterminism:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_same_seed_same_case(self, family):
        a = generate_case(family, 17, 16)
        b = generate_case(family, 17, 16)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_different_seeds_vary(self, family):
        shapes = {
            (
                generate_case(family, s, 20).cset.n_symbols,
                len(generate_case(family, s, 20).cset.constraints),
            )
            for s in range(12)
        }
        assert len(shapes) > 1


class TestStructure:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_cases_are_well_formed(self, family, seed):
        case = generate_case(family, seed, 16)
        assert isinstance(case.cset, ConstraintSet)
        assert case.cset.n_symbols >= 2
        for constraint in case.cset.constraints:
            assert constraint.symbols <= set(case.cset.symbols)
        if case.nv is not None:
            assert case.nv >= case.cset.min_code_length()

    def test_scale_bounds_symbols(self):
        for seed in range(20):
            case = generate_case("random", seed, 8)
            assert case.cset.n_symbols <= 8

    def test_scale_reaches_large_instances(self):
        biggest = max(
            generate_case("random", s, 2000).cset.n_symbols
            for s in range(40)
        )
        assert biggest > 500

    def test_fsm_family_carries_machine(self):
        case = generate_case("fsm", 2, 12)
        assert case.fsm is not None
        assert case.cset.n_symbols == case.fsm.n_states

    def test_bounded_length_is_marked_satisfiable(self):
        case = generate_case("bounded-length", 4, 16)
        assert case.satisfiable
        assert case.nv is not None
        # prefix groups at nv: the natural encoding s_i -> i satisfies
        # every group, so the marking is honest
        codes = {f"s{i}": i for i in range(case.cset.n_symbols)}
        encoding = Encoding(case.cset.symbols, codes, case.nv)
        for constraint in case.cset.nontrivial():
            assert not encoding.intruders(constraint.symbols)

    def test_grid_family_rows_and_columns(self):
        case = generate_case("grid", 1, 20)
        assert case.cset.n_symbols >= 4
        assert len(case.cset.constraints) >= 3


class TestRoundTrip:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_dict_round_trip(self, family):
        case = generate_case(family, 5, 12)
        again = FuzzCase.from_dict(case.to_dict())
        assert again.to_dict() == case.to_dict()
        assert tuple(again.cset.symbols) == tuple(case.cset.symbols)
        assert (again.fsm is None) == (case.fsm is None)
        if case.fsm is not None:
            assert again.fsm.n_states == case.fsm.n_states


class TestHypothesisStrategies:
    def test_fuzz_cases_strategy_draws_cases(self):
        @hypothesis.given(fuzz_cases(scale=10))
        @hypothesis.settings(
            max_examples=15, deadline=None,
            suppress_health_check=[
                hypothesis.HealthCheck.too_slow,
                hypothesis.HealthCheck.filter_too_much,
            ],
        )
        def run(case):
            assert isinstance(case, FuzzCase)
            assert case.family in GENERATORS
            assert case.cset.n_symbols >= 2

        run()

    def test_constraint_sets_strategy(self):
        @hypothesis.given(constraint_sets(["random"], scale=8))
        @hypothesis.settings(max_examples=10, deadline=None)
        def run(cset):
            assert isinstance(cset, ConstraintSet)

        run()
