"""The fuzz generators, oracle and hardening contract as property tests.

Every generator family gets one derandomized hypothesis property that
runs its cases through :func:`repro.fuzz.run_case` and then re-runs
each case with faults armed at the budget and oracle seams: the
classification must stay outside ``FINDINGS`` and every armed fault
must come back classified.  A failing example prints as its
``(family, seed)`` pair; ``docs/fuzzing.md`` has the triage steps.
"""

import pytest
from hypothesis import HealthCheck, Phase, given, settings

from repro.encoding import Encoding
from repro.fuzz import (
    FINDINGS,
    INFEASIBLE,
    TIMEOUT,
    VIOLATION,
    generate_case,
    list_generators,
    run_case,
)
from repro.fuzz.strategies import fuzz_cases
from repro.runtime import ReproError, SolverTimeout, faults
from repro.solvers import _REGISTRY, register_solver
from tests.test_fuzz_oracle import _FakeSolver

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

#: per-case budget and symbol ceiling, as in the retired CI campaign
TIMEOUT_S = 10.0
SCALE = 24

#: what each armed seam must classify as
HARDEN_EXPECT = (
    ("solver.solve", SolverTimeout, TIMEOUT),
    ("fuzz.verify", ReproError, VIOLATION),
)

#: the (family, seed) keys of the retired CI campaign
#: ``--max-examples 50 --seed 0``: round-robin over the families,
#: seeds ``0 + 10007 * i``
CI_KEYS = [
    (list_generators()[i % 5], 10007 * (i // 5)) for i in range(50)
]


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


def assert_clean_and_hardened(case, solver="picola"):
    """``case`` is no finding, and stays classified under every armed
    fault.  A seam deeper than where the plain run stopped (infeasible
    or out of budget before verification) never trips, so there the
    plain classification is accepted as well."""
    outcome = run_case(case, solver, timeout=TIMEOUT_S)
    assert outcome.classification not in FINDINGS, (
        f"{case!r}: {outcome.classification} [{outcome.detail}]"
    )
    for site, exc, expected in HARDEN_EXPECT:
        accepted = {expected}
        if outcome.classification in (INFEASIBLE, TIMEOUT):
            accepted.add(outcome.classification)
        with faults.inject(site, exc):
            hardened = run_case(case, solver, timeout=TIMEOUT_S)
        assert hardened.classification in accepted, (
            f"{case!r}: {site}: armed {exc.__name__} classified as "
            f"{hardened.classification}, expected "
            f"{'/'.join(sorted(accepted))}"
        )


@pytest.mark.parametrize("family", list_generators())
def test_family_property(family):
    @PROPERTY
    @given(fuzz_cases([family], scale=SCALE))
    def check(case):
        assert case.family == family
        assert_clean_and_hardened(case)

    check()


@pytest.mark.parametrize(
    "family,seed", CI_KEYS, ids=[f"{f}:{s}" for f, s in CI_KEYS]
)
def test_ci_campaign_case(family, seed):
    assert_clean_and_hardened(generate_case(family, seed, SCALE))


@pytest.mark.parametrize("family", list_generators())
def test_case_fault_classifies_as_violation(family, monkeypatch):
    """An externally armed ``REPRO_FAULTS`` error at the case seam is
    a classified VIOLATION, never an escaping exception."""
    monkeypatch.setenv("REPRO_FAULTS", f"fuzz.case@{family}=error")
    faults.install_from_env()
    outcome = run_case(generate_case(family, 0, SCALE), timeout=TIMEOUT_S)
    assert outcome.classification == VIOLATION
    assert "ReproError" in outcome.detail


def test_non_injective_solver_is_a_finding():
    # the check the properties run must reject a solver that hands
    # every symbol the same code
    def collide(cset, opts):
        nv = opts.get("nv") or cset.min_code_length()
        codes = {s: 0 for s in cset.symbols}
        return Encoding(cset.symbols, codes, nv), {}, None

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
            # the swallowed timeout comes back OK instead of TIMEOUT
            with pytest.raises(AssertionError, match="solver.solve"):
                assert_clean_and_hardened(
                    generate_case("random", 0, 8), "fz-swallow"
                )
        finally:
            _REGISTRY.pop("fz-swallow", None)
