"""Request execution: one code path from request to response.

:func:`execute` is where an :class:`~repro.service.EncodeRequest`
meets the solver registry.  Its callers are ``assign_states`` and the
``repro.api`` facade, so budgets, tracing and failure classification
behave identically for those two.  It is not the only route to a
solver: the Table I, ablation and seed-sweep drivers call
:meth:`~repro.solvers.Solver.solve` directly.

Observability contract (asserted by ``tests/test_service.py``):

* every request bumps the ``service.requests`` counter and runs
  under a ``service/request`` span (its duration feeds the tracer's
  per-name latency histogram);
* the registry call runs under a nested ``service/solve`` span;
* classified failures bump ``service.errors``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from ..obs import MemorySink, Tracer, resolve_tracer
from ..runtime import Budget, InfeasibleError, InvalidSpecError, ReproError
from ..runtime.isolation import classify_failure
from ..solvers import EncodeResult, get_solver
from .request import EncodeRequest, EncodeResponse

__all__ = ["execute", "REQUEST_SPAN", "SOLVE_SPAN"]

#: span wrapping every request
REQUEST_SPAN = "service/request"
#: span wrapping the registry solve
SOLVE_SPAN = "service/solve"


def _plain_value(value: Any) -> Any:
    """``value`` as plain JSON-style data (raises on live objects)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain_value(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_plain_value(v) for v in value)
    if isinstance(value, Mapping):
        return {str(k): _plain_value(v) for k, v in value.items()}
    raise InvalidSpecError(
        f"value of type {type(value).__name__} is not plain data"
    )


def _safe_stats(stats: Dict[str, Any]) -> Dict[str, Any]:
    """Solver stats restricted to plain values."""
    out: Dict[str, Any] = {}
    for key, value in stats.items():
        try:
            out[key] = _plain_value(value)
        except ReproError:
            continue  # live objects stay solver-internal
    return out


def _response_from_result(
    result: EncodeResult,
    trace: Optional[Dict[str, Any]],
) -> EncodeResponse:
    encoding = result.encoding
    return EncodeResponse(
        status="ok",
        solver=result.solver,
        symbols=encoding.symbols,
        codes=dict(encoding.codes),
        n_bits=encoding.n_bits,
        seconds=result.seconds,
        stats=_safe_stats(dict(result.stats)),
        trace=trace,
    )


def _response_from_error(
    request: EncodeRequest,
    exc: BaseException,
    trace: Optional[Dict[str, Any]],
) -> EncodeResponse:
    if isinstance(exc, InfeasibleError):
        status, message = "infeasible", str(exc)
    else:
        status, message = classify_failure(exc)
    return EncodeResponse(
        status=status,
        solver=request.solver,
        symbols=request.symbols,
        error=message,
        error_type=type(exc).__name__,
        trace=trace,
    )


def _trace_summary(tracer: Tracer) -> Dict[str, Any]:
    return {
        "counters": tracer.counters(),
        "timings": {
            name: hist.to_dict()
            for name, hist in tracer.timings().items()
        },
    }


def _adopt(tracer: Any, sink: MemorySink, private: Tracer) -> None:
    if getattr(tracer, "enabled", False):
        tracer.adopt(
            sink.spans,
            counters=private.counters(),
            gauges=private.gauges(),
        )


def execute(
    request: EncodeRequest,
    *,
    budget: Optional[Budget] = None,
    tracer: Any = None,
    classify: bool = True,
) -> EncodeResponse:
    """Serve one request: registry solve plus classification.

    ``budget`` overrides the request's declarative QoS with an
    externally shared :class:`~repro.runtime.Budget` (the harness
    does this so an encode and its espresso step split one
    allowance).  With ``classify=False`` solver failures propagate as
    exceptions instead of becoming non-``ok`` responses — the
    harness' per-benchmark fault isolation wants the raw error.
    """
    tracer = resolve_tracer(tracer)
    tracer.count("service.requests")
    if budget is None:
        budget = request.make_budget()
    # per-request tracing: the solve runs under a private tracer whose
    # aggregates ride back in the response; its events are adopted
    # into the caller's live tracer so --trace/--profile stay whole
    sink: Optional[MemorySink] = None
    solve_tracer = tracer
    if request.trace:
        sink = MemorySink()
        solve_tracer = Tracer(sink)
    failure: Optional[BaseException] = None
    with tracer.span(
        REQUEST_SPAN,
        solver=request.solver,
        symbols=len(request.symbols),
    ):
        try:
            with tracer.span(SOLVE_SPAN, solver=request.solver):
                result = get_solver(request.solver).solve(
                    request.constraint_set(),
                    options=request.solver_options(),
                    budget=budget,
                    tracer=solve_tracer,
                )
        except (ReproError, KeyError, TypeError) as exc:
            # KeyError: unknown solver name; TypeError: unknown option
            # keys — both are classified, like every solver failure
            tracer.count("service.errors")
            if not classify:
                raise
            failure = exc
        trace: Optional[Dict[str, Any]] = None
        if sink is not None:
            trace = _trace_summary(solve_tracer)
            _adopt(tracer, sink, solve_tracer)
        if failure is not None:
            return _response_from_error(request, failure, trace)
        return _response_from_result(result, trace)
