"""Observability: tracing spans, counters/gauges, profiling, sinks.

The measurement substrate for every solver in this package:

* :mod:`repro.obs.tracer` — :class:`Tracer` (spans, counters, gauges,
  per-span-name histograms), the zero-cost :data:`NULL_TRACER`, and
  the module-level default installed with :func:`set_tracer`;
* :mod:`repro.obs.sinks` — :class:`MemorySink` (tests/profiling),
  :class:`ConsoleSink` (human-readable), :class:`JsonlSink`
  (JSON-lines files, the CLI's ``--trace PATH``);
* :mod:`repro.obs.profile` — :func:`profile_report`, the per-phase
  breakdown behind the CLI's ``--profile``.

Like :mod:`repro.runtime` this package is a leaf — solvers may depend
on it without cycles — and the instrumentation seams are the same
loop heads where :class:`~repro.runtime.Budget` is checked, so budget
accounting and metrics share one code path.

Usage::

    from repro.obs import MemorySink, Tracer

    tracer = Tracer(MemorySink())
    result = picola_encode(cset, tracer=tracer)
    print(tracer.counters()["picola.columns"])
"""

from .profile import ProfileReport, profile_report
from .sinks import ConsoleSink, JsonlSink, MemorySink, Sink
from .tracer import (
    NULL_TRACER,
    Histogram,
    NullTracer,
    Span,
    Tracer,
    count,
    gauge,
    get_tracer,
    resolve_tracer,
    set_tracer,
    span,
)

__all__ = [
    "Histogram",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "count",
    "gauge",
    "get_tracer",
    "resolve_tracer",
    "set_tracer",
    "span",
    "Sink",
    "MemorySink",
    "ConsoleSink",
    "JsonlSink",
    "ProfileReport",
    "profile_report",
]
