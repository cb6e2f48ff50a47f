"""The fuzz oracle: every outcome classified, the harness never crashes."""

import pytest

from repro.encoding import Encoding
from repro.fuzz import (
    CRASH,
    FINDINGS,
    INFEASIBLE,
    OK,
    TIMEOUT,
    VIOLATION,
    generate_case,
    run_case,
    verify_result,
)
from repro.runtime import (
    Budget,
    InfeasibleError,
    InvariantViolation,
    SolverTimeout,
    faults,
)
from repro.solvers import Solver, _REGISTRY, register_solver


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


class _FakeSolver(Solver):
    """Registry-conformant solver whose behaviour the test scripts."""

    option_keys = ("nv", "seed", "fsm")

    def __init__(self, name, behaviour):
        self.name = name
        self.behaviour = behaviour

    def _run(self, cset, opts, budget, tracer):
        return self.behaviour(cset, opts)


@pytest.fixture
def fake_solver():
    """Register a scripted solver for one test; auto-unregister."""
    registered = []

    def make(name, behaviour):
        register_solver(_FakeSolver(name, behaviour))
        registered.append(name)
        return name

    yield make
    for name in registered:
        _REGISTRY.pop(name, None)


def _good(cset, opts):
    nv = opts.get("nv") or cset.min_code_length()
    codes = {s: i for i, s in enumerate(cset.symbols)}
    return Encoding(cset.symbols, codes, nv), {"nodes": 1}, None


class TestClassifications:
    def test_ok(self):
        case = generate_case("random", 1, 10)
        outcome = run_case(case, "picola", timeout=30)
        assert outcome.classification == OK
        assert not outcome.is_finding

    def test_infeasible(self, fake_solver):
        def bail(cset, opts):
            raise InfeasibleError("no encoding exists")

        name = fake_solver("fz-infeasible", bail)
        outcome = run_case(generate_case("random", 1, 8), name)
        assert outcome.classification == INFEASIBLE
        assert not outcome.is_finding

    def test_timeout_via_injected_budget(self):
        case = generate_case("random", 2, 8)
        with faults.inject("solver.solve", SolverTimeout):
            outcome = run_case(case, "picola", timeout=30)
        assert outcome.classification == TIMEOUT
        assert not outcome.is_finding

    def test_violation_non_injective(self, fake_solver):
        def collide(cset, opts):
            nv = opts.get("nv") or cset.min_code_length()
            codes = {s: 0 for s in cset.symbols}
            return Encoding(cset.symbols, codes, nv), {}, None

        name = fake_solver("fz-collide", collide)
        outcome = run_case(generate_case("random", 3, 8), name)
        assert outcome.classification == VIOLATION
        assert "injective" in outcome.detail
        assert outcome.is_finding

    def test_violation_wrong_width(self, fake_solver):
        def too_wide(cset, opts):
            nv = (opts.get("nv") or cset.min_code_length()) + 3
            codes = {s: i for i, s in enumerate(cset.symbols)}
            return Encoding(cset.symbols, codes, nv), {}, None

        name = fake_solver("fz-wide", too_wide)
        outcome = run_case(generate_case("random", 3, 8), name)
        assert outcome.classification == VIOLATION
        assert "code length" in outcome.detail

    def test_violation_wrong_symbols(self, fake_solver):
        def other(cset, opts):
            return Encoding(["a", "b"], {"a": 0, "b": 1}, 1), {}, None

        name = fake_solver("fz-other", other)
        outcome = run_case(generate_case("random", 4, 8), name)
        assert outcome.classification == VIOLATION
        assert "symbols" in outcome.detail

    def test_violation_from_repro_error(self, fake_solver):
        def blow(cset, opts):
            raise InvariantViolation("internal invariant broke")

        name = fake_solver("fz-invariant", blow)
        outcome = run_case(generate_case("random", 5, 8), name)
        assert outcome.classification == VIOLATION
        assert "InvariantViolation" in outcome.detail

    def test_crash_from_unclassified_exception(self, fake_solver):
        def crash(cset, opts):
            raise RuntimeError("kaboom")

        name = fake_solver("fz-crash", crash)
        outcome = run_case(generate_case("random", 6, 8), name)
        assert outcome.classification == CRASH
        assert "RuntimeError" in outcome.detail
        assert outcome.is_finding

    def test_crash_from_index_error(self, fake_solver):
        def crash(cset, opts):
            return [][0]

        name = fake_solver("fz-index", crash)
        outcome = run_case(generate_case("random", 7, 8), name)
        assert outcome.classification == CRASH
        assert "IndexError" in outcome.detail

    def test_findings_tuple(self):
        assert FINDINGS == (VIOLATION, CRASH)


class TestOracleProperties:
    @pytest.mark.parametrize("family", [
        "random", "fsm", "bounded-length", "grid", "pathological",
    ])
    def test_run_case_never_raises(self, family, fake_solver):
        def nasty(cset, opts):
            raise KeyError("surprise")

        name = fake_solver("fz-nasty", nasty)
        for seed in range(3):
            outcome = run_case(
                generate_case(family, seed, 10), name, timeout=30
            )
            assert outcome.classification == CRASH

    def test_satisfiable_optimal_contract(self, fake_solver):
        # an "optimal" result that leaves a provably-satisfiable
        # instance unsatisfied must be called out
        case = generate_case("bounded-length", 3, 12)
        assert case.satisfiable

        def lying_optimal(cset, opts):
            nv = opts.get("nv") or cset.min_code_length()
            codes = {s: i for i, s in enumerate(cset.symbols)}
            return (
                Encoding(cset.symbols, codes, nv),
                {"optimal": True},
                None,
            )

        name = fake_solver("fz-lying", lying_optimal)
        outcome = run_case(case, name)
        # either the arbitrary order happens to satisfy everything
        # (rare) or the lie is flagged; both classifications are legal
        assert outcome.classification in (OK, VIOLATION)

    def test_verify_result_flags_dishonest_claims(self):
        # grid:4 at minimum length: the counting-order encoding leaves
        # several rows with intruders, so claiming them all satisfied
        # is dishonest by construction
        case = generate_case("grid", 4, 12)

        class Raw:
            satisfied = list(case.cset.nontrivial())

        class Result:
            encoding = Encoding(
                case.cset.symbols,
                {s: i for i, s in enumerate(case.cset.symbols)},
                case.nv or case.cset.min_code_length(),
            )
            stats = {}
            raw = Raw()

        problems = verify_result(case, Result(), budget=Budget())
        # a grid's rows+columns cannot all be faces of the counting
        # order, so at least one claimed row must be dishonest
        assert any("claimed-satisfied" in p for p in problems)

    def test_cosim_runs_for_fsm_cases(self):
        case = generate_case("fsm", 1, 10)
        outcome = run_case(case, "picola", timeout=60)
        assert outcome.classification == OK

