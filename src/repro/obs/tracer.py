"""Hierarchical tracing spans, typed counters/gauges and histograms.

A :class:`Tracer` is the single object solvers talk to:

* ``with tracer.span("picola/column", col=j):`` opens a *span* — a
  named, attributed, wall-clock-timed region.  Spans nest; each
  completed span is emitted to every attached sink together with its
  depth and parent name, and its duration feeds a per-name
  :class:`Histogram`.
* ``tracer.count("exact.nodes", 128)`` bumps a *counter* — a
  monotonically increasing named integer.
* ``tracer.gauge("espresso.cubes_after_expand", len(cover))`` records
  the latest value of a named quantity (min/max/last are kept).

Everything is zero-dependency and cheap.  When tracing is off the
module-level :data:`NULL_TRACER` singleton is used instead: all of its
methods are no-ops, ``span()`` returns one shared reusable context
manager, and nothing is allocated — so an instrumented loop head costs
one method call (bounded by tests/test_obs.py's microbenchmark).

Solvers accept ``tracer=None`` and resolve it via
:func:`resolve_tracer`, which falls back to the process-wide default
installed with :func:`set_tracer` (the CLI's ``--trace``/``--profile``
flags use exactly that hook).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

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
]


class Histogram:
    """Streaming summary of a series of values (durations, sizes)."""

    __slots__ = ("n", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def add(self, value: float) -> None:
        self.n += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n": self.n,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Histogram(n={self.n}, total={self.total:.6f}, "
            f"mean={self.mean:.6f})"
        )


class _NullSpan:
    """The reusable no-op span; one shared instance, never allocated."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """A tracer that records nothing; every method is a no-op.

    Used as the module default so instrumented code never needs an
    ``if tracer is not None`` guard: the disabled hot path is one
    no-op method call.
    """

    __slots__ = ()
    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def counter(self, name: str) -> int:
        return 0

    def counters(self) -> Dict[str, int]:
        return {}

    def gauges(self) -> Dict[str, Dict[str, float]]:
        return {}

    def timings(self) -> Dict[str, Histogram]:
        return {}

    def adopt(
        self,
        spans: Any,
        counters: Optional[Dict[str, int]] = None,
        gauges: Optional[Dict[str, Dict[str, float]]] = None,
        root: Optional[Dict[str, Any]] = None,
    ) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


class Span:
    """One live traced region; use as a context manager."""

    __slots__ = ("tracer", "name", "attrs", "depth", "parent",
                 "start", "seconds")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, Any],
        depth: int,
        parent: Optional[str],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.depth = depth
        self.parent = parent
        self.start = 0.0
        self.seconds: Optional[float] = None

    def set(self, **attrs: Any) -> None:
        """Attach or update attributes of the live span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self.tracer._enter(self)
        return self

    def __exit__(self, *exc: object) -> bool:
        self.tracer._exit(self)
        return False


class Tracer:
    """Collects spans, counters and gauges; fans events out to sinks.

    Sinks receive one dict per completed span (``type="span"``) as it
    closes, plus aggregate ``counters``/``gauges``/``timings`` events
    when :meth:`close` is called.  The tracer itself keeps the
    aggregates, so a sink-less ``Tracer()`` still supports
    :meth:`counters` / :meth:`timings` / profiling.

    One tracer may be shared across threads: callers may count
    against the same instance from several threads.  The aggregates (counters, gauges, histograms, sink
    emission, close) are guarded by one re-entrant lock; the span
    stack is **thread-local**, so concurrent spans nest per thread
    instead of corrupting each other's depth/parent chains.  The
    :class:`NullTracer` fast path stays lock-free.
    """

    enabled = True

    def __init__(
        self,
        *sinks: Any,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._sinks = list(sinks)
        self._clock = clock
        # RLock, not Lock: adopt() calls count() while holding it
        self._lock = threading.RLock()
        self._local = threading.local()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, Dict[str, float]] = {}
        self._timings: Dict[str, Histogram] = {}
        self._closed = False

    # -- spans ---------------------------------------------------------
    @property
    def _stack(self) -> List[Span]:
        """This thread's span stack (created lazily per thread)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack
    def span(self, name: str, **attrs: Any) -> Span:
        parent = self._stack[-1].name if self._stack else None
        return Span(self, name, attrs, len(self._stack), parent)

    def _enter(self, span: Span) -> None:
        span.depth = len(self._stack)
        span.parent = self._stack[-1].name if self._stack else None
        self._stack.append(span)
        span.start = self._clock()

    def _exit(self, span: Span) -> None:
        span.seconds = self._clock() - span.start
        stack = self._stack  # thread-local: no lock needed
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            hist = self._timings.get(span.name)
            if hist is None:
                hist = self._timings[span.name] = Histogram()
            hist.add(span.seconds)
            if self._sinks:
                event = {
                    "type": "span",
                    "name": span.name,
                    "parent": span.parent,
                    "depth": span.depth,
                    "seconds": span.seconds,
                    "attrs": span.attrs,
                }
                for sink in self._sinks:
                    sink.emit(event)

    # -- counters and gauges -------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                self._gauges[name] = {
                    "last": value, "min": value, "max": value, "n": 1,
                }
            else:
                g["last"] = value
                g["n"] += 1
                if value < g["min"]:
                    g["min"] = value
                if value > g["max"]:
                    g["max"] = value

    # -- adoption of foreign (worker-process) events --------------------
    def adopt(
        self,
        spans: Any,
        counters: Optional[Dict[str, int]] = None,
        gauges: Optional[Dict[str, Dict[str, float]]] = None,
        root: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Absorb events recorded by *another* tracer — typically one
        that lived in a worker process of the parallel harness engine.

        ``spans`` are raw span event dicts (the :class:`MemorySink`
        shape); they are re-emitted to this tracer's sinks with their
        depth shifted under the current stack and, when ``root`` is
        given, orphan spans re-parented to ``root["name"]``.  ``root``
        itself (a synthetic span event, e.g. one ``parallel/unit`` per
        benchmark) is emitted last, matching the spans-close-inside-out
        ordering sinks already expect.  Span durations feed the same
        per-name histograms as native spans, and ``counters`` /
        ``gauges`` aggregates merge into this tracer's, so
        ``--profile`` reports are whole-run coherent regardless of
        which process did the work.
        """
        stack = self._stack  # thread-local
        base = len(stack)
        shift = base + (1 if root is not None else 0)
        root_name = root["name"] if root is not None else None
        events: List[Dict[str, Any]] = []
        for event in spans:
            ev = dict(event)
            ev["depth"] = int(event.get("depth", 0)) + shift
            if ev.get("parent") is None:
                ev["parent"] = root_name
            events.append(ev)
        if root is not None:
            ev = dict(root)
            ev.setdefault("type", "span")
            ev.setdefault("attrs", {})
            ev["depth"] = base
            ev["parent"] = stack[-1].name if stack else None
            events.append(ev)
        with self._lock:
            for ev in events:
                hist = self._timings.get(ev["name"])
                if hist is None:
                    hist = self._timings[ev["name"]] = Histogram()
                hist.add(ev["seconds"])
                for sink in self._sinks:
                    sink.emit(ev)
            for name, value in (counters or {}).items():
                self.count(name, value)
            for name, g in (gauges or {}).items():
                mine = self._gauges.get(name)
                if mine is None:
                    self._gauges[name] = dict(g)
                else:
                    mine["last"] = g["last"]
                    mine["n"] += g["n"]
                    if g["min"] < mine["min"]:
                        mine["min"] = g["min"]
                    if g["max"] > mine["max"]:
                        mine["max"] = g["max"]

    # -- snapshots -----------------------------------------------------
    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {k: dict(v) for k, v in self._gauges.items()}

    def timings(self) -> Dict[str, Histogram]:
        with self._lock:
            return dict(self._timings)

    def close(self) -> None:
        """Emit the aggregate events and close every sink (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._sinks:
                for event in (
                    {"type": "counters", "values": self.counters()},
                    {"type": "gauges", "values": self.gauges()},
                    {
                        "type": "timings",
                        "values": {
                            k: v.to_dict()
                            for k, v in self._timings.items()
                        },
                    },
                ):
                    for sink in self._sinks:
                        sink.emit(event)
            for sink in self._sinks:
                close = getattr(sink, "close", None)
                if close is not None:
                    close()


# ----------------------------------------------------------------------
# module-level default tracer
# ----------------------------------------------------------------------
_current: Any = NULL_TRACER


def get_tracer() -> Any:
    """The process-wide default tracer (NULL_TRACER unless installed)."""
    return _current


def set_tracer(tracer: Optional[Any]) -> Any:
    """Install (or, with ``None``, uninstall) the default tracer."""
    global _current
    _current = tracer if tracer is not None else NULL_TRACER
    return _current


def resolve_tracer(tracer: Optional[Any]) -> Any:
    """What the solvers call: explicit tracer, else the module default."""
    return tracer if tracer is not None else _current


def span(name: str, **attrs: Any) -> Any:
    """Open a span on the default tracer."""
    return _current.span(name, **attrs)


def count(name: str, n: int = 1) -> None:
    """Bump a counter on the default tracer."""
    _current.count(name, n)


def gauge(name: str, value: float) -> None:
    """Record a gauge on the default tracer."""
    _current.gauge(name, value)
