"""Tests for the encoding service layer.

Covers the request/response boundary, the single dispatch path
(:func:`repro.service.dispatch.execute`), its observability contract
and the ``repro.api`` facade.
"""

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.api import encode
from repro.baselines.simple import natural_encoding
from repro.core import PicolaOptions
from repro.encoding import ConstraintSet, FaceConstraint
from repro.fsm import load_benchmark
from repro.obs import MemorySink, Tracer
from repro.runtime import (
    Budget,
    BudgetExceeded,
    InvalidSpecError,
    ReproError,
)
from repro.service import (
    EncodeRequest,
    EncodeResponse,
    REQUEST_SPAN,
    SOLVE_SPAN,
    execute,
)
from repro.solvers import Solver, _REGISTRY, register_solver


def simple_request(solver="picola", **kwargs):
    return EncodeRequest.build(
        ["s0", "s1", "s2", "s3"],
        [{"symbols": ["s0", "s1"]}, {"symbols": ["s2", "s3"]}],
        solver=solver,
        **kwargs,
    )


def span_names(sink):
    return [e["name"] for e in sink.spans]


class TestEncodeRequest:
    def test_build_from_parts(self):
        request = simple_request()
        assert request.symbols == ("s0", "s1", "s2", "s3")
        assert len(request.constraints) == 2
        assert request.solver == "picola"

    def test_build_from_constraint_set(self):
        cset = ConstraintSet(
            ["a", "b", "c"], [FaceConstraint({"a", "b"})]
        )
        request = EncodeRequest.build(cset, solver="exact")
        assert request.symbols == ("a", "b", "c")
        assert request.constraint_set().symbols == ("a", "b", "c")

    def test_build_rejects_cset_plus_constraints(self):
        cset = ConstraintSet(["a", "b"], [])
        with pytest.raises(InvalidSpecError):
            EncodeRequest.build(cset, [{"symbols": ["a"]}])

    def test_empty_symbols_rejected(self):
        with pytest.raises(InvalidSpecError):
            EncodeRequest(symbols=())

    def test_nv_in_both_places_rejected(self):
        with pytest.raises(InvalidSpecError):
            EncodeRequest(
                symbols=("a", "b"), options={"nv": 2}, nv=2
            )

    def test_bad_qos_rejected(self):
        with pytest.raises(InvalidSpecError):
            EncodeRequest(symbols=("a",), timeout=-1.0)
        with pytest.raises(InvalidSpecError):
            EncodeRequest(symbols=("a",), max_nodes=-5)
        with pytest.raises(InvalidSpecError):
            EncodeRequest(symbols=("a",), nv=0)

    def test_constraints_validated_at_boundary(self):
        # constraint mentions a symbol outside the alphabet
        with pytest.raises(ReproError):
            EncodeRequest(
                symbols=("a", "b"),
                constraints=({"symbols": ["a", "zzz"]},),
            )

    def test_live_fsm_option_reaches_solver(self):
        fsm = load_benchmark("lion")
        request = EncodeRequest.build(
            list(fsm.states), solver="mustang", options={"fsm": fsm}
        )
        assert request.options["fsm"] is fsm
        assert execute(request).ok

    def test_picola_options_reach_solver(self):
        options = PicolaOptions(beam_width=3)
        request = EncodeRequest.build(
            ["a", "b"], options={"picola_options": options}
        )
        assert request.options["picola_options"] is options
        assert execute(request).ok

    def test_make_budget(self):
        assert simple_request().make_budget() is None
        budget = simple_request(
            timeout=2.0, max_nodes=10
        ).make_budget()
        assert isinstance(budget, Budget)

    def test_frozen(self):
        request = simple_request()
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.solver = "nova"


class TestEncodeResponse:
    def test_bad_status_rejected(self):
        with pytest.raises(InvalidSpecError):
            EncodeResponse(status="weird", solver="x")

    def test_encoding_reconstruction(self):
        response = execute(simple_request())
        encoding = response.encoding()
        assert encoding.n_bits == response.n_bits
        assert set(encoding.symbols) == set(response.symbols)

    def test_encoding_raises_without_codes(self):
        response = EncodeResponse(
            status="failed", solver="x", error="boom"
        )
        with pytest.raises(InvalidSpecError):
            response.encoding()


class TestExecute:
    def test_ok_path(self):
        response = execute(simple_request())
        assert response.ok and response.status == "ok"
        assert response.n_bits == 2

    def test_unknown_solver_classified(self):
        response = execute(simple_request(solver="nope"))
        assert response.status == "failed"
        assert response.error_type == "KeyError"

    def test_unknown_option_classified(self):
        request = EncodeRequest.build(
            ["a", "b"], solver="picola", options={"bogus": 1}
        )
        response = execute(request)
        assert response.status == "failed"
        assert "bogus" in (response.error or "")

    def test_infeasible_classified(self):
        # 5 symbols cannot fit a 1-bit code
        request = EncodeRequest.build(
            [f"s{i}" for i in range(5)], solver="exact", nv=1
        )
        response = execute(request)
        assert response.status == "infeasible"

    def test_budget_classified(self):
        request = simple_request(solver="exact", max_nodes=1)
        response = execute(request)
        assert response.status in ("budget", "timeout")

    def test_classify_false_propagates(self):
        request = simple_request(solver="exact", max_nodes=1)
        with pytest.raises(BudgetExceeded):
            execute(request, classify=False)

    def test_external_budget_overrides_request_qos(self):
        request = simple_request(solver="exact")
        exhausted = Budget(max_nodes=1)
        response = execute(request, budget=exhausted)
        assert response.status in ("budget", "timeout")

    def test_trace_summary_attached(self):
        response = execute(simple_request(trace=True))
        assert response.trace is not None
        assert "counters" in response.trace
        assert "timings" in response.trace

    def test_no_trace_by_default(self):
        assert execute(simple_request()).trace is None


class TestObservabilityContract:
    def test_request_span_and_counters(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        execute(simple_request(), tracer=tracer)
        assert REQUEST_SPAN in span_names(sink)
        assert SOLVE_SPAN in span_names(sink)
        assert tracer.counters()["service.requests"] == 1

    def test_latency_histogram_fed(self):
        tracer = Tracer(MemorySink())
        execute(simple_request(), tracer=tracer)
        timings = tracer.timings()
        assert REQUEST_SPAN in timings
        assert timings[REQUEST_SPAN].n == 1

    def test_errors_counted(self):
        tracer = Tracer(MemorySink())
        execute(simple_request(solver="nope"), tracer=tracer)
        assert tracer.counters()["service.errors"] == 1

    def test_custom_solver_reached_through_registry(self):
        """``repro.encode`` reaches a registered solver only through
        ``get_solver(...).solve``, handing it the request's budget and
        a tracer inside the service spans."""
        calls = []

        class Spy(Solver):
            name = "spy"

            def _run(self, cset, opts, budget, tracer):
                calls.append((budget, tracer))
                encoding = natural_encoding(list(cset.symbols))
                return encoding, {}, encoding

        register_solver(Spy())
        try:
            sink = MemorySink()
            tracer = Tracer(sink)
            response = repro.encode(
                simple_request(solver="spy", timeout=5), tracer=tracer
            )
        finally:
            _REGISTRY.pop("spy", None)
        assert response.ok and response.solver == "spy"
        ((budget, solve_tracer),) = calls
        assert isinstance(budget, Budget)
        assert budget.deadline.seconds == 5
        assert solve_tracer is tracer
        assert tracer.counters()["service.requests"] == 1
        assert SOLVE_SPAN in span_names(sink)


class TestApiFacade:
    def test_top_level_exports(self):
        assert repro.encode is encode
        assert repro.EncodeRequest is EncodeRequest
        assert repro.EncodeResponse is EncodeResponse

    def test_encode_through_facade(self):
        response = encode(simple_request())
        assert response.ok

    def test_facade_matches_dispatch(self):
        direct = execute(simple_request())
        via_api = encode(simple_request())
        assert dataclasses.replace(direct, seconds=0.0) == (
            dataclasses.replace(via_api, seconds=0.0)
        )

    def test_assign_states_routes_through_service(self):
        """The harness pipeline dispatches via the service layer."""
        sink = MemorySink()
        tracer = Tracer(sink)
        result = repro.assign_states(
            load_benchmark("lion"), "picola", tracer=tracer
        )
        assert result.encoding.n_bits >= 2
        assert REQUEST_SPAN in span_names(sink)
        assert SOLVE_SPAN in span_names(sink)

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
