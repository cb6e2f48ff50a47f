"""The fuzz generators through the whole encode pipeline, as property
tests.

Every generator family gets one derandomized hypothesis property that
runs :func:`tests.fuzz.check` on its cases with ``picola`` (a
case whose budget runs out fails), then arms
a ``SolverTimeout`` at the ``solver.solve`` seam: it must surface as a
``BudgetExceeded``.  A failing example prints as the
``generate_case(family, seed, 24)`` call that rebuilds it;
``docs/fuzzing.md`` has the triage steps.
"""

import pytest
from hypothesis import HealthCheck, Phase, given, settings

from repro.encoding import Encoding
from repro.runtime import (
    Budget,
    BudgetExceeded,
    ReproError,
    SolverTimeout,
    faults,
)
from repro.solvers import _REGISTRY, register_solver
from tests.fuzz import GENERATORS, check, fuzz_cases, generate_case, solve
from tests.test_fuzz_oracle import _FakeSolver, collide

#: tier-1 stays deterministic: a fixed example stream, no example
#: database, no per-example deadline on a shared host.  No explain
#: phase: it re-runs shrunk examples under line tracing, which slows
#: the pure-Python solvers ~100x and turns one failure into minutes
PROPERTY = settings(
    max_examples=15,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=[Phase.explicit, Phase.generate, Phase.shrink],
)

#: symbol ceiling, as in the retired CI campaign
SCALE = 24

FAMILIES = sorted(GENERATORS)

#: the (family, seed) keys of the retired CI campaign
#: ``--max-examples 50 --seed 0``: round-robin over the families,
#: seeds ``0 + 10007 * i``
CI_KEYS = [(FAMILIES[i % 5], 10007 * (i // 5)) for i in range(50)]


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


def assert_clean_and_hardened(case, solver="picola"):
    """``case`` passes the check within its budget, and a
    ``SolverTimeout`` armed at the ``solver.solve`` seam surfaces as a
    ``BudgetExceeded``."""
    assert check(case, solver) != "budget", "the check's budget ran out"
    with faults.inject("solver.solve", SolverTimeout):
        with pytest.raises(BudgetExceeded):
            solve(case, solver, Budget())


@pytest.mark.parametrize("family", FAMILIES)
def test_family_property(family):
    @PROPERTY
    @given(fuzz_cases([family], scale=SCALE))
    def check_case(case):
        assert case.family == family
        assert_clean_and_hardened(case)

    check_case()


@pytest.mark.parametrize(
    "family,seed", CI_KEYS, ids=[f"{f}:{s}" for f, s in CI_KEYS]
)
def test_ci_campaign_case(family, seed):
    assert_clean_and_hardened(generate_case(family, seed, SCALE))


@pytest.mark.parametrize("family", FAMILIES)
def test_case_fault_classifies_as_violation(family, monkeypatch):
    """An externally armed ``REPRO_FAULTS`` error at a case's solve is
    a finding: the check lets the ``ReproError`` through."""
    monkeypatch.setenv("REPRO_FAULTS", "solver.solve@picola=error")
    faults.install_from_env()
    with pytest.raises(ReproError, match="injected fault"):
        check(generate_case(family, 0, SCALE))


def test_non_injective_solver_is_a_finding():
    # the check the properties run must reject a solver that hands
    # every symbol the same code
    register_solver(_FakeSolver("fz-collide-all", collide))
    try:
        with pytest.raises(AssertionError, match="not injective"):
            assert_clean_and_hardened(
                generate_case("random", 0, 8), "fz-collide-all"
            )
    finally:
        _REGISTRY.pop("fz-collide-all", None)


class TestHardening:
    def test_hardening_failure_is_a_finding(self):
        # a solver that swallows *everything* (even injected faults)
        # defeats the degradation contract; the hardening check must
        # flag it
        def swallowing(cset, opts):
            nv = opts.get("nv") or cset.min_code_length()
            codes = {s: i for i, s in enumerate(cset.symbols)}
            return Encoding(cset.symbols, codes, nv), {}, None

        class Swallowing(_FakeSolver):
            def solve(self, *args, **kwargs):  # bypasses faults.trip
                try:
                    return super().solve(*args, **kwargs)
                except Exception:  # noqa -- deliberately broken
                    return super().solve(*args, **kwargs)

        register_solver(Swallowing("fz-swallow", swallowing))
        try:
            # the swallowed timeout comes back as a result
            with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
                assert_clean_and_hardened(
                    generate_case("random", 0, 8), "fz-swallow"
                )
        finally:
            _REGISTRY.pop("fz-swallow", None)
