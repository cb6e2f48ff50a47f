"""Conformance tests for the unified solver registry (repro.solvers)."""

import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro
import repro.baselines
import repro.core
import repro.encoding
import repro.solvers
from repro.baselines.nova import nova_encode
from repro.encoding import derive_face_constraints
from repro.encoding.exact import exact_encode
from repro.fsm import load_benchmark
from repro.obs import MemorySink, Tracer
from repro.runtime import Budget, Deadline, InvalidSpecError
from repro.solvers import (
    EncodeResult,
    Solver,
    get_solver,
    list_solvers,
    register_solver,
)

ALL_SOLVERS = ("enc", "exact", "mustang", "nova", "picola", "simple")


@pytest.fixture(scope="module")
def lion():
    fsm = load_benchmark("lion")
    return fsm, derive_face_constraints(fsm)


def _solve(name, fsm, cset, **kwargs):
    """Solve with the per-solver required options filled in."""
    options = dict(kwargs.pop("options", {}) or {})
    if name == "mustang":
        options.setdefault("fsm", fsm)
    return get_solver(name).solve(cset, options=options, **kwargs)


class TestRegistry:
    def test_all_solvers_registered(self):
        assert list_solvers() == ALL_SOLVERS

    def test_unknown_solver_lists_the_menu(self):
        with pytest.raises(InvalidSpecError, match="picola"):
            get_solver("does-not-exist")

    def test_duplicate_registration_rejected(self):
        class Dup(Solver):
            name = "picola"

        with pytest.raises(ValueError, match="already registered"):
            register_solver(Dup())

    def test_replace_and_restore(self):
        original = get_solver("simple")

        class Override(Solver):
            name = "simple"

        try:
            register_solver(Override(), replace=True)
            assert isinstance(get_solver("simple"), Override)
        finally:
            register_solver(original, replace=True)
        assert get_solver("simple") is original

    def test_unnamed_solver_rejected(self):
        with pytest.raises(ValueError, match="name"):
            register_solver(Solver())


def _public_encoders():
    """``(name, fn)`` for every public ``*_encode`` defined in the
    encoder packages (re-exports excluded)."""
    found = []
    for package in (repro.core, repro.encoding, repro.baselines):
        for info in pkgutil.walk_packages(
            package.__path__, package.__name__ + "."
        ):
            module = importlib.import_module(info.name)
            for name, obj in sorted(vars(module).items()):
                if (
                    name.endswith("_encode")
                    and not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    found.append((name, obj))
    return found


PUBLIC_ENCODERS = _public_encoders()


class TestEncoderConformance:
    """Every public encoder sits behind the registry with the uniform
    keyword-only ``budget=``/``tracer=`` seam, so the harness, the CLI
    and ``assign_states`` reach it with budgets and tracing intact."""

    def test_walk_finds_every_encoder(self):
        assert {name for name, _ in PUBLIC_ENCODERS} >= {
            "enc_encode", "exact_encode", "mustang_encode",
            "nova_encode", "picola_encode",
        }

    @pytest.mark.parametrize(
        "name, fn", PUBLIC_ENCODERS, ids=[n for n, _ in PUBLIC_ENCODERS]
    )
    def test_keyword_only_budget_and_tracer(self, name, fn):
        params = inspect.signature(fn).parameters
        for seam in ("budget", "tracer"):
            assert seam in params, f"{name}() lacks {seam}="
            assert params[seam].kind is inspect.Parameter.KEYWORD_ONLY

    @pytest.mark.parametrize(
        "name, fn", PUBLIC_ENCODERS, ids=[n for n, _ in PUBLIC_ENCODERS]
    )
    def test_same_object_as_in_solvers(self, name, fn):
        assert getattr(repro.solvers, name, None) is fn


class TestUniformSignature:
    def test_solve_signature_is_shared(self):
        expected = [
            "self", "symbols", "constraints",
            "options", "budget", "deadline", "tracer",
        ]
        for name in ALL_SOLVERS:
            solver = get_solver(name)
            sig = inspect.signature(type(solver).solve)
            assert list(sig.parameters) == expected, name
            for kw in ("options", "budget", "deadline", "tracer"):
                assert (
                    sig.parameters[kw].kind
                    is inspect.Parameter.KEYWORD_ONLY
                ), (name, kw)

    @pytest.mark.parametrize("name", ALL_SOLVERS)
    def test_result_shape(self, name, lion):
        fsm, cset = lion
        result = _solve(name, fsm, cset)
        assert isinstance(result, EncodeResult)
        assert result.solver == name
        assert result.seconds >= 0.0
        assert isinstance(result.nodes, int)
        assert result.nodes >= 0
        assert "nodes" in result.stats
        # the encoding covers every symbol, injectively
        encoding = result.encoding
        assert set(encoding.symbols) == set(cset.symbols)
        assert encoding.is_injective()
        assert encoding.n_bits >= cset.min_code_length()

    @pytest.mark.parametrize("name", ("picola", "exact"))
    def test_constraint_solvers_do_real_work(self, name, lion):
        fsm, cset = lion
        result = _solve(name, fsm, cset)
        assert result.nodes > 0
        assert result.stats["satisfied"] > 0

    def test_symbols_plus_constraints_form(self):
        result = get_solver("simple").solve(["a", "b", "c"], ())
        assert set(result.encoding.symbols) == {"a", "b", "c"}

    def test_constraint_set_plus_constraints_rejected(self, lion):
        fsm, cset = lion
        with pytest.raises(ValueError, match="not both"):
            get_solver("picola").solve(cset, [])


class TestOptionValidation:
    def test_unknown_option_raises(self, lion):
        fsm, cset = lion
        with pytest.raises(InvalidSpecError, match="typo_key"):
            get_solver("picola").solve(
                cset, options={"typo_key": 1}
            )

    def test_error_names_the_known_keys(self, lion):
        fsm, cset = lion
        with pytest.raises(InvalidSpecError, match="anneal_moves"):
            get_solver("nova").solve(cset, options={"bogus": 1})

    def test_mustang_requires_fsm(self, lion):
        fsm, cset = lion
        with pytest.raises(InvalidSpecError, match="fsm"):
            get_solver("mustang").solve(cset)

    def test_budget_and_deadline_exclusive(self, lion):
        fsm, cset = lion
        with pytest.raises(ValueError, match="not both"):
            get_solver("picola").solve(
                cset,
                budget=Budget(seconds=10),
                deadline=Deadline(10),
            )

    @pytest.mark.parametrize(
        "name, args, kwargs",
        [
            ("picola", ([],), {}),
            (
                "picola",
                (),
                {"budget": Budget(seconds=10), "deadline": Deadline(10)},
            ),
            ("simple", (), {"options": {"scheme": "bogus"}}),
        ],
        ids=["cset-and-constraints", "budget-and-deadline", "scheme"],
    )
    def test_argument_errors_are_invalid_spec(
        self, lion, name, args, kwargs
    ):
        """``Solver.solve`` is the public encode entry: its argument
        errors belong to the taxonomy."""
        fsm, cset = lion
        with pytest.raises(InvalidSpecError):
            get_solver(name).solve(cset, *args, **kwargs)

    def test_deadline_alone_is_accepted(self, lion):
        fsm, cset = lion
        result = get_solver("picola").solve(
            cset, deadline=Deadline(60)
        )
        assert result.encoding.is_injective()


class TestTracerPlumbing:
    def test_nodes_counted_without_a_tracer(self, lion):
        """Node counts come from a private tracer when tracing is off."""
        fsm, cset = lion
        result = get_solver("nova").solve(cset)
        assert result.nodes > 0

    def test_callers_tracer_sees_solver_counters(self, lion):
        fsm, cset = lion
        sink = MemorySink()
        tracer = Tracer(sink)
        result = get_solver("picola").solve(cset, tracer=tracer)
        assert tracer.counter("picola.beam_states") == result.nodes
        assert any(
            s["name"] == "picola/encode" for s in sink.spans
        )


class TestDeterminismAcrossApis:
    """The registry must not change results vs the legacy entry points."""

    def test_picola_matches_legacy_call(self, lion):
        from repro.core import picola_encode

        fsm, cset = lion
        via_registry = get_solver("picola").solve(cset)
        legacy = picola_encode(cset)
        assert (
            via_registry.encoding.codes == legacy.encoding.codes
        )

    def test_nova_matches_legacy_call(self, lion):
        fsm, cset = lion
        via_registry = get_solver("nova").solve(
            cset, options={"seed": 1}
        )
        legacy = nova_encode(cset, seed=1)
        assert (
            via_registry.encoding.codes == legacy.encoding.codes
        )


class TestRemovedPositionalNv:
    """``nv`` is keyword-only on exact_encode/nova_encode."""

    def test_exact_positional_nv_raises(self, lion):
        fsm, cset = lion
        with pytest.raises(TypeError, match="positional argument"):
            exact_encode(cset, 2)

    def test_nova_positional_nv_raises(self, lion):
        fsm, cset = lion
        with pytest.raises(TypeError, match="positional argument"):
            nova_encode(cset, 2)

    def test_keyword_nv_is_clean(self, lion):
        import warnings

        fsm, cset = lion
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            exact_encode(cset, nv=2)
            nova_encode(cset, nv=2)


class TestImportFootprint:
    @staticmethod
    def _loaded_after(module, names):
        """Which of ``names`` a fresh interpreter has loaded after
        ``import module``."""
        code = (
            f"import sys, {module}\n"
            f"print(sorted(m for m in {names!r} if m in sys.modules))"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        return out.stdout.strip()

    def test_import_loads_no_harness_or_network_stack(self):
        """``import repro`` stays in-process: no experiment harness,
        HTTP server or process-pool modules come along, and neither
        the fuzz subsystem nor its test-only hypothesis dependency."""
        heavy = (
            "repro.harness", "http.server", "socketserver",
            "multiprocessing", "concurrent.futures", "repro.fuzz",
            "hypothesis",
        )
        assert self._loaded_after("repro", heavy) == "[]"

    def test_fuzz_import_loads_no_harness(self):
        """``repro.fuzz`` needs the solvers and the oracle only, not
        the experiment driver or its process pool."""
        heavy = ("repro.harness", "multiprocessing")
        assert self._loaded_after("repro.fuzz", heavy) == "[]"
