"""The fuzz check (``tests/fuzz.py::check``) against scripted solvers.

A clean result, an infeasible instance and a blown budget return
their outcome; a broken encoding fails an assertion; any other
exception propagates as the finding it is.
"""

import pytest

import tests.fuzz
from repro.encoding import Encoding
from repro.fsm import CosimMismatch
from repro.runtime import (
    InfeasibleError,
    InvariantViolation,
    SolverTimeout,
    faults,
)
from repro.solvers import Solver, _REGISTRY, register_solver
from tests.fuzz import check, generate_case, verify_result


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


def collide(cset, opts):
    """Every symbol gets code 0."""
    nv = opts.get("nv") or cset.min_code_length()
    codes = {s: 0 for s in cset.symbols}
    return Encoding(cset.symbols, codes, nv), {}, None


class TestClassifications:
    def test_ok(self):
        assert check(generate_case("random", 1, 10), "picola") == "verified"

    def test_infeasible(self, fake_solver):
        def bail(cset, opts):
            raise InfeasibleError("no encoding exists")

        name = fake_solver("fz-infeasible", bail)
        assert check(generate_case("random", 1, 8), name) == "infeasible"

    def test_timeout_via_injected_budget(self):
        case = generate_case("random", 2, 8)
        with faults.inject("solver.solve", SolverTimeout) as fault:
            assert check(case, "picola") == "budget"
        assert fault.fired == 1

    def test_violation_non_injective(self, fake_solver):
        name = fake_solver("fz-collide", collide)
        with pytest.raises(AssertionError, match="not injective"):
            check(generate_case("random", 3, 8), name)

    def test_violation_wrong_width(self, fake_solver):
        def too_wide(cset, opts):
            nv = (opts.get("nv") or cset.min_code_length()) + 3
            codes = {s: i for i, s in enumerate(cset.symbols)}
            return Encoding(cset.symbols, codes, nv), {}, None

        name = fake_solver("fz-wide", too_wide)
        with pytest.raises(AssertionError, match="code length"):
            check(generate_case("random", 3, 8), name)

    def test_violation_wrong_symbols(self, fake_solver):
        def other(cset, opts):
            return Encoding(["a", "b"], {"a": 0, "b": 1}, 1), {}, None

        name = fake_solver("fz-other", other)
        with pytest.raises(AssertionError, match="symbols"):
            check(generate_case("random", 4, 8), name)

    def test_violation_from_repro_error(self, fake_solver):
        def blow(cset, opts):
            raise InvariantViolation("internal invariant broke")

        name = fake_solver("fz-invariant", blow)
        with pytest.raises(InvariantViolation):
            check(generate_case("random", 5, 8), name)

    def test_crash_from_unclassified_exception(self, fake_solver):
        def crash(cset, opts):
            raise RuntimeError("kaboom")

        name = fake_solver("fz-crash", crash)
        with pytest.raises(RuntimeError, match="kaboom"):
            check(generate_case("random", 6, 8), name)

    def test_crash_from_index_error(self, fake_solver):
        def crash(cset, opts):
            return [][0]

        name = fake_solver("fz-index", crash)
        with pytest.raises(IndexError):
            check(generate_case("random", 7, 8), name)


class TestOracleProperties:
    def test_satisfiable_optimal_contract(self, fake_solver):
        # an "optimal" result that leaves a provably-satisfiable
        # instance unsatisfied must be called out
        case = generate_case("bounded-length", 3, 12)
        assert case.satisfiable

        def lying_optimal(cset, opts):
            # the natural code s_i -> i satisfies every prefix group;
            # trading one member's code for an outsider's breaks one
            codes = {f"s{i}": i for i in range(cset.n_symbols)}
            group = cset.nontrivial()[0].symbols
            member = min(group)
            outsider = min(s for s in cset.symbols if s not in group)
            codes[member], codes[outsider] = codes[outsider], codes[member]
            encoding = Encoding(cset.symbols, codes, opts["nv"])
            return encoding, {"optimal": True}, None

        name = fake_solver("fz-lying", lying_optimal)
        with pytest.raises(AssertionError, match="satisfiable by construction"):
            check(case, name)

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

        with pytest.raises(AssertionError, match="claimed-satisfied"):
            verify_result(case, Result(), None)

    def test_cosim_runs_for_fsm_cases(self, monkeypatch):
        case = generate_case("fsm", 1, 10)
        assert check(case, "picola") == "verified"

        def diverge(*args, **kwargs):
            raise CosimMismatch("diverged at step 0")

        monkeypatch.setattr(tests.fuzz, "cosimulate", diverge)
        with pytest.raises(CosimMismatch):
            check(case, "picola")
