"""Unit tests for the resilient runtime layer (repro.runtime)."""

import pytest

from repro.runtime import (
    Budget,
    BudgetExceeded,
    Deadline,
    InfeasibleError,
    ParseError,
    ReproError,
    SolverTimeout,
    faults,
    run_isolated,
)
from repro.solvers import get_solver, list_solvers


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(ParseError, ReproError)
        assert issubclass(InfeasibleError, ReproError)
        assert issubclass(BudgetExceeded, ReproError)
        assert issubclass(SolverTimeout, BudgetExceeded)

    def test_builtin_compatibility(self):
        """Legacy call sites catching builtins keep working."""
        assert issubclass(ParseError, ValueError)
        assert issubclass(InfeasibleError, ValueError)
        assert issubclass(BudgetExceeded, RuntimeError)
        assert issubclass(SolverTimeout, RuntimeError)

    def test_solver_exceptions_join_taxonomy(self):
        from repro.baselines.enc import EncBudgetExceeded
        from repro.encoding.exact import ExactSearchBudget

        assert issubclass(EncBudgetExceeded, BudgetExceeded)
        assert issubclass(ExactSearchBudget, BudgetExceeded)

    def test_parse_error_from_kiss(self):
        from repro.fsm import parse_kiss

        with pytest.raises(ParseError):
            parse_kiss(".i 1\n.o 1\nbad row\n.e\n")
        # still catchable as the historical ValueError
        with pytest.raises(ValueError):
            parse_kiss(".i 1\n.o 1\nbad row\n.e\n")


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestDeadline:
    def test_unlimited_never_expires(self):
        d = Deadline(None)
        assert d.remaining() is None
        assert not d.expired()
        d.check()  # no raise

    def test_expires_with_clock(self):
        clock = FakeClock()
        d = Deadline(10.0, clock=clock)
        assert d.remaining() == pytest.approx(10.0)
        clock.now = 9.0
        assert not d.expired()
        clock.now = 10.5
        assert d.expired()
        with pytest.raises(SolverTimeout, match="deadline"):
            d.check("unit")

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)


class TestBudget:
    def test_node_budget(self):
        b = Budget(max_nodes=5)
        for _ in range(5):
            b.tick()
        with pytest.raises(BudgetExceeded, match="node budget"):
            b.tick(where="unit")
        assert b.remaining_nodes() == -1

    def test_deadline_checked_periodically(self):
        clock = FakeClock()
        b = Budget(
            deadline=Deadline(1.0, clock=clock), check_every=4
        )
        clock.now = 2.0
        b.tick()  # not yet at a check boundary
        b.tick()
        b.tick()
        with pytest.raises(SolverTimeout):
            b.tick()  # 4th tick consults the clock

    def test_check_is_unconditional(self):
        clock = FakeClock()
        b = Budget(deadline=Deadline(1.0, clock=clock))
        clock.now = 2.0
        with pytest.raises(SolverTimeout):
            b.check()

    def test_unlimited(self):
        b = Budget()
        assert not b.limited
        assert b.remaining_nodes() is None
        for _ in range(1000):
            b.tick()

    def test_seconds_and_deadline_exclusive(self):
        with pytest.raises(ValueError):
            Budget(seconds=1.0, deadline=Deadline(1.0))


class TestFaults:
    def test_noop_when_nothing_armed(self):
        faults.trip("anything")  # no raise

    def test_arm_and_trip(self):
        faults.arm("site.a", SolverTimeout)
        with pytest.raises(SolverTimeout, match="injected fault"):
            faults.trip("site.a")
        faults.trip("site.a")  # fired once (times=1), now exhausted

    def test_key_scoping(self):
        faults.arm("site.b", BudgetExceeded, key="lion9")
        faults.trip("site.b", key="other")  # no raise
        with pytest.raises(BudgetExceeded):
            faults.trip("site.b", key="lion9")

    def test_after_counts_matching_trips(self):
        faults.arm("site.c", SolverTimeout, after=3)
        faults.trip("site.c")
        faults.trip("site.c")
        with pytest.raises(SolverTimeout):
            faults.trip("site.c")

    def test_times_unlimited(self):
        faults.arm("site.d", SolverTimeout, times=None)
        for _ in range(3):
            with pytest.raises(SolverTimeout):
                faults.trip("site.d")

    def test_inject_context_manager_disarms(self):
        with faults.inject("site.e", SolverTimeout) as fault:
            assert fault in faults.active()
            with pytest.raises(SolverTimeout):
                faults.trip("site.e")
        assert not faults.active()
        faults.trip("site.e")  # no raise after exit

    def test_exception_instance_is_raised_verbatim(self):
        exc = SolverTimeout("custom message")
        faults.arm("site.f", exc)
        with pytest.raises(SolverTimeout, match="custom message"):
            faults.trip("site.f")

    def test_install_from_env(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "table1.row@lion9=timeout,enc.x=budget:2"
        )
        installed = faults.install_from_env()
        assert len(installed) == 2
        assert installed[0].key == "lion9"
        assert installed[1].after == 2
        with pytest.raises(SolverTimeout):
            faults.trip("table1.row", key="lion9")

    def test_install_from_env_rejects_bad_kind(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "site=explode")
        with pytest.raises(ValueError, match="explode"):
            faults.install_from_env()

    def test_install_from_env_empty(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert faults.install_from_env() == []


class TestRunIsolated:
    def test_ok(self):
        outcome = run_isolated(lambda x: x + 1, 2, label="add")
        assert outcome.ok
        assert outcome.value == 3
        assert outcome.label == "add"

    def test_timeout(self):
        def boom():
            raise SolverTimeout("too slow")

        outcome = run_isolated(boom)
        assert outcome.status == "timeout"
        assert outcome.reason == "timeout"
        assert "too slow" in outcome.error

    def test_budget(self):
        def boom():
            raise BudgetExceeded("out of nodes")

        outcome = run_isolated(boom)
        assert outcome.status == "budget"
        assert outcome.reason == "budget"

    def test_generic_failure(self):
        def boom():
            raise ValueError("bad input")

        outcome = run_isolated(boom)
        assert outcome.status == "failed"
        assert outcome.error == "ValueError: bad input"
        assert outcome.reason == "ValueError"

    def test_operator_interrupts_propagate(self):
        def interrupted():
            raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            run_isolated(interrupted)


class TestSolverBudgetThreading:
    """Budgets reach the solvers' inner loops."""

    def _small_cset(self):
        from repro.encoding import ConstraintSet, FaceConstraint

        symbols = [f"s{i}" for i in range(6)]
        return ConstraintSet(
            symbols,
            [
                FaceConstraint({"s0", "s1"}),
                FaceConstraint({"s2", "s3", "s4"}),
            ],
        )

    def test_exact_encode_external_budget_strict(self):
        from repro.encoding import exact_encode

        with pytest.raises(BudgetExceeded):
            exact_encode(
                self._small_cset(), strict=True,
                budget=Budget(max_nodes=3),
            )

    def test_exact_encode_external_budget_degrades(self):
        from repro.encoding import exact_encode

        # the first complete assignment of 6 symbols costs exactly 7
        # search nodes, so an 8-node budget trips with a best-so-far
        # encoding in hand and the non-strict call degrades gracefully
        result = exact_encode(
            self._small_cset(), budget=Budget(max_nodes=8)
        )
        assert result.encoding.is_injective()
        assert not result.optimal

    def test_exact_encode_deadline(self):
        from repro.encoding import exact_encode

        clock = FakeClock()
        budget = Budget(
            deadline=Deadline(1.0, clock=clock), check_every=1
        )
        clock.now = 5.0
        with pytest.raises(SolverTimeout):
            exact_encode(self._small_cset(), strict=True, budget=budget)

    def test_picola_encode_budget(self):
        from repro.core import picola_encode

        with pytest.raises(BudgetExceeded):
            picola_encode(self._small_cset(), budget=Budget(max_nodes=1))

    def test_nova_encode_budget(self):
        from repro.baselines import nova_encode

        with pytest.raises(BudgetExceeded):
            nova_encode(self._small_cset(), budget=Budget(max_nodes=10))

    def test_enc_encode_external_budget_propagates(self):
        from repro.baselines import enc_encode

        with pytest.raises(BudgetExceeded):
            enc_encode(self._small_cset(), budget=Budget(max_nodes=2))

    @pytest.mark.parametrize(
        "name", [n for n in list_solvers() if n != "simple"]
    )
    def test_registry_solver_ticks_budget(self, name):
        """Every registry solver with a search loop reaches a
        budget-ticking kernel from ``Solver.solve``; ``simple`` has no
        loop to bound."""
        with pytest.raises(BudgetExceeded):
            get_solver(name).solve(
                self._small_cset(), budget=Budget(max_nodes=1)
            )

    #: every budget tick/check site in ``src/repro`` by its ``where=``
    #: label, with a run that reaches it
    SITES = {
        "picola_encode": "picola",
        "picola_repair": "picola",
        "exact_encode": "exact",
        "nova_encode": "nova",
        "enc_encode": "enc",
        "espresso": "assign_states",
    }

    def _run_recording(self, run):
        from repro.fsm import load_benchmark
        from repro.stateassign import assign_states

        class RecordingBudget(Budget):
            """An unlimited budget that notes every site label."""

            def __init__(self):
                super().__init__()
                self.sites = set()

            def tick(self, n=1, where=""):
                self.sites.add(where)
                super().tick(n, where)

            def check(self, where=""):
                self.sites.add(where)
                super().check(where)

        budget = RecordingBudget()
        if run == "assign_states":
            assign_states(load_benchmark("lion9"), "natural", budget=budget)
        else:
            get_solver(run).solve(self._small_cset(), budget=budget)
        return budget.sites

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_every_budget_site_is_reached(self, site):
        """Deleting a loop's tick leaves ``--timeout`` unable to stop
        that loop; the run that owns the loop must hit its label."""
        assert site in self._run_recording(self.SITES[site])

    def test_sites_table_lists_every_labelled_call(self):
        """A new tick/check site needs a label and a row in SITES."""
        import ast
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).resolve().parent
        labels = []
        for path in sorted(root.rglob("*.py")):
            if path.parent.name == "runtime":
                continue  # Budget/Deadline forward the label
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("tick", "check")
                ):
                    where = [k.value for k in node.keywords if k.arg == "where"]
                    assert where and isinstance(where[0], ast.Constant), (
                        f"{path.name}:{node.lineno}: tick/check without "
                        "a where= label"
                    )
                    labels.append(where[0].value)
        assert sorted(labels) == sorted(self.SITES)

    def test_picola_repair_checks_its_deadline(self):
        """The repair loop checks the clock itself: with the deadline
        past and ticks never reaching the clock, it is the repair
        check that times the run out."""
        from repro.core import picola_encode

        clock = FakeClock()
        budget = Budget(
            deadline=Deadline(1.0, clock=clock), check_every=10**9
        )
        clock.now = 5.0
        with pytest.raises(SolverTimeout, match="^picola_repair: "):
            picola_encode(self._small_cset(), budget=budget)

    def test_assign_states_timeout_via_fault(self):
        from repro.fsm import load_benchmark
        from repro.stateassign import assign_states

        fsm = load_benchmark("lion9")
        with faults.inject("nova.move", SolverTimeout):
            with pytest.raises(SolverTimeout):
                assign_states(fsm, "nova_ih")
