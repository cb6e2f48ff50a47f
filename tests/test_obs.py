"""Unit tests for the observability layer (repro.obs)."""

import io
import json
import statistics
import time

import pytest

from repro import cubes
from repro.core import picola_encode
from repro.encoding import ConstraintSet, FaceConstraint
from repro.obs import (
    NULL_TRACER,
    ConsoleSink,
    JsonlSink,
    MemorySink,
    NullTracer,
    Tracer,
    get_tracer,
    profile_report,
    resolve_tracer,
    set_tracer,
)


@pytest.fixture(autouse=True)
def _no_global_tracer():
    """Tests must not leak a process-wide tracer into each other."""
    set_tracer(None)
    yield
    set_tracer(None)


class TestSpans:
    def test_nesting_records_parent_and_depth(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
            with tracer.span("sibling"):
                pass
        # spans emit on close: innermost first
        names = [s["name"] for s in sink.spans]
        assert names == ["inner", "middle", "sibling", "outer"]
        by_name = {s["name"]: s for s in sink.spans}
        assert by_name["outer"]["parent"] is None
        assert by_name["outer"]["depth"] == 0
        assert by_name["middle"]["parent"] == "outer"
        assert by_name["middle"]["depth"] == 1
        assert by_name["inner"]["parent"] == "middle"
        assert by_name["inner"]["depth"] == 2
        assert by_name["sibling"]["parent"] == "outer"
        assert by_name["sibling"]["depth"] == 1

    def test_span_attrs_and_set(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("work", col=3) as span:
            span.set(children=7)
        (event,) = sink.spans
        assert event["attrs"] == {"col": 3, "children": 7}
        assert event["seconds"] >= 0.0

    def test_span_survives_exception(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert [s["name"] for s in sink.spans] == ["inner", "outer"]
        # the stack unwound: a new span is top-level again
        with tracer.span("after"):
            pass
        assert sink.spans[-1]["parent"] is None

    def test_timings_histogram(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("step"):
                pass
        hist = tracer.timings()["step"]
        assert hist.n == 3
        assert hist.total >= 0.0
        assert hist.minimum <= hist.mean <= hist.maximum
        assert hist.to_dict()["n"] == 3


class TestCountersAndGauges:
    def test_counter_aggregation(self):
        tracer = Tracer()
        tracer.count("exact.nodes")
        tracer.count("exact.nodes", 41)
        tracer.count("other", 5)
        assert tracer.counter("exact.nodes") == 42
        assert tracer.counter("missing") == 0
        assert tracer.counters() == {"exact.nodes": 42, "other": 5}

    def test_counters_snapshot_is_a_copy(self):
        tracer = Tracer()
        tracer.count("a")
        snap = tracer.counters()
        snap["a"] = 999
        assert tracer.counter("a") == 1

    def test_gauge_keeps_last_min_max_n(self):
        tracer = Tracer()
        for value in (5.0, 2.0, 9.0):
            tracer.gauge("beam.width", value)
        g = tracer.gauges()["beam.width"]
        assert g == {"last": 9.0, "min": 2.0, "max": 9.0, "n": 3}

    def test_close_emits_aggregates_once(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.count("n", 3)
        tracer.gauge("g", 1.5)
        with tracer.span("s"):
            pass
        tracer.close()
        tracer.close()  # idempotent
        types = [e["type"] for e in sink.events]
        assert types.count("counters") == 1
        assert types.count("gauges") == 1
        assert types.count("timings") == 1
        assert sink.counters() == {"n": 3}


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(path))
        with tracer.span("outer", fsm="lion"):
            with tracer.span("inner"):
                pass
        tracer.count("work.items", 7)
        tracer.gauge("work.best", 3.0)
        tracer.close()
        events = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert all(isinstance(e, dict) for e in events)
        spans = [e for e in events if e["type"] == "span"]
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert spans[1]["attrs"] == {"fsm": "lion"}
        (counters,) = [e for e in events if e["type"] == "counters"]
        assert counters["values"] == {"work.items": 7}
        (timings,) = [e for e in events if e["type"] == "timings"]
        assert timings["values"]["outer"]["n"] == 1

    def test_jsonl_accepts_open_handle(self):
        handle = io.StringIO()
        tracer = Tracer(JsonlSink(handle))
        tracer.count("x")
        tracer.close()
        lines = handle.getvalue().splitlines()
        assert json.loads(lines[0]) == {
            "type": "counters", "values": {"x": 1},
        }

    def test_console_sink_renders_spans(self):
        out = io.StringIO()
        tracer = Tracer(ConsoleSink(out))
        with tracer.span("outer"):
            with tracer.span("inner", col=2):
                pass
        tracer.count("n", 4)
        tracer.close()
        text = out.getvalue()
        assert "  inner:" in text  # indented by depth
        assert "[col=2]" in text
        assert "n = 4" in text

    def test_memory_sink_clear(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("s"):
            pass
        assert sink.spans
        sink.clear()
        assert sink.events == []


class TestDefaultTracer:
    def test_default_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert resolve_tracer(None) is NULL_TRACER

    def test_set_and_reset(self):
        tracer = Tracer()
        assert set_tracer(tracer) is tracer
        assert get_tracer() is tracer
        assert resolve_tracer(None) is tracer
        set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_explicit_tracer_wins(self):
        installed, explicit = Tracer(), Tracer()
        set_tracer(installed)
        assert resolve_tracer(explicit) is explicit

    def test_null_tracer_is_inert(self):
        null = NullTracer()
        assert null.enabled is False
        assert Tracer.enabled is True
        with null.span("anything", attr=1) as span:
            span.set(more=2)
        # one shared, reusable context manager: no allocation per span
        assert null.span("a") is null.span("b")
        null.count("n", 5)
        null.gauge("g", 1.0)
        assert null.counter("n") == 0
        assert null.counters() == {}
        assert null.gauges() == {}
        assert null.timings() == {}
        null.close()


class TestSolverIntegration:
    def test_picola_populates_counters_and_spans(self):
        symbols = [f"s{i}" for i in range(6)]
        cset = ConstraintSet(
            symbols,
            [
                FaceConstraint({"s0", "s1"}),
                FaceConstraint({"s2", "s3", "s4"}),
            ],
        )
        sink = MemorySink()
        tracer = Tracer(sink)
        picola_encode(cset, tracer=tracer)
        assert tracer.counter("picola.columns") > 0
        assert tracer.counter("picola.beam_states") > 0
        names = {s["name"] for s in sink.spans}
        assert "picola/encode" in names
        assert "picola/column" in names

    def test_profile_report_renders(self):
        tracer = Tracer()
        with tracer.span("picola/encode"):
            with tracer.span("picola/column"):
                pass
        tracer.count("picola.columns", 1)
        tracer.gauge("picola.intruder_set", 2)
        text = profile_report(tracer).render()
        assert "picola/column" in text
        assert "picola.columns" in text
        assert "picola.intruder_set" in text


class TestNullTracerOverhead:
    """The disabled tracer must be ~free on an instrumented hot loop.

    The workload mirrors a real instrumented loop head: a batch of
    cube-kernel operations (what solver inner loops actually do)
    followed by one tracer call — the same shape as the seams in
    :mod:`repro.core` and :mod:`repro.espresso`.  Each repeat times
    the bare and the instrumented loop back to back, in alternating
    order, and we require the median of the per-pair ratios to show
    <5% overhead: a pair shares the host's speed of the moment, and
    the median ignores the pairs a scheduler hiccup landed in.

    Short timings (a few ms each) and many pairs keep the two halves of
    a pair inside one stretch of the host's speed: on a shared 2-core
    host, 31 pairs of 400 rows gave medians up to 1.07 on unchanged
    code, while 501 pairs of 25 rows (the same total work) stayed
    within 1.00 ± 0.01.
    """

    REPEATS = 501
    ROWS = 25

    @staticmethod
    def _workload(space, cube_list, tracer):
        acc = 0
        for _ in range(TestNullTracerOverhead.ROWS):
            a = cube_list[0]
            for b in cube_list:
                acc += cubes.distance(space, a, b)
                acc += cubes.cube_size(
                    space, cubes.intersect(space, a, b)
                )
            if tracer is not None:
                tracer.count("bench.rows")
        return acc

    @classmethod
    def _timed(cls, space, cube_list, tracer):
        t0 = time.perf_counter()
        cls._workload(space, cube_list, tracer)
        return time.perf_counter() - t0

    def test_disabled_overhead_under_five_percent(self):
        space = cubes.Space([2] * 8)
        cube_list = [
            space.universe & ~space.literal(i % 8, (i // 3) % 2)
            for i in range(24)
        ]
        # warm up both paths before timing
        self._workload(space, cube_list, None)
        self._workload(space, cube_list, NULL_TRACER)
        # interleave the two variants so clock-speed drift between
        # early and late trials cannot masquerade as tracer overhead,
        # and alternate which one runs first within a pair
        ratios = []
        for trial in range(self.REPEATS):
            if trial % 2:
                nulled = self._timed(space, cube_list, NULL_TRACER)
                bare = self._timed(space, cube_list, None)
            else:
                bare = self._timed(space, cube_list, None)
                nulled = self._timed(space, cube_list, NULL_TRACER)
            ratios.append(nulled / bare)
        ratio = statistics.median(ratios)
        assert ratio < 1.05, (
            f"NullTracer overhead {100 * (ratio - 1):.2f}% "
            f"(median of {self.REPEATS} paired ratios)"
        )


class TestTracerThreadSafety:
    """Regression tests for a Tracer data race: concurrent
    count()/span()/gauge() calls from several threads lost updates
    before the aggregates were lock-guarded."""

    THREADS = 8
    PER_THREAD = 2000

    def _hammer(self, work):
        import sys
        import threading

        # force frequent preemption so torn read-modify-write cycles
        # actually interleave instead of hiding behind long timeslices
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(i,))
                for i in range(self.THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old)

    def test_concurrent_counts_are_exact(self):
        tracer = Tracer()

        def work(i):
            for _ in range(self.PER_THREAD):
                tracer.count("hammer.n")
                tracer.gauge("hammer.g", i)
                # worker aggregates folded in, as the parallel engine does
                tracer.adopt(
                    [],
                    counters={"hammer.n": 1},
                    gauges={"hammer.g": {"last": i, "n": 1,
                                         "min": i, "max": i}},
                )

        self._hammer(work)
        assert tracer.counter("hammer.n") == (
            2 * self.THREADS * self.PER_THREAD
        )
        assert tracer.gauges()["hammer.g"]["n"] == (
            2 * self.THREADS * self.PER_THREAD
        )

    def test_concurrent_spans_keep_exact_histograms(self):
        tracer = Tracer()

        def work(i):
            for _ in range(self.PER_THREAD // 4):
                with tracer.span("hammer/outer"):
                    with tracer.span("hammer/inner"):
                        pass

        self._hammer(work)
        expected = self.THREADS * (self.PER_THREAD // 4)
        assert tracer.timings()["hammer/outer"].n == expected
        assert tracer.timings()["hammer/inner"].n == expected

    def test_span_stacks_are_thread_local(self):
        sink = MemorySink()
        tracer = Tracer(sink)

        def work(i):
            for _ in range(50):
                with tracer.span("outer"):
                    with tracer.span("inner"):
                        pass

        self._hammer(work)
        inner = [e for e in sink.spans if e["name"] == "inner"]
        outer = [e for e in sink.spans if e["name"] == "outer"]
        # concurrent nesting never bleeds across threads: every inner
        # span sits at depth 1 under its own thread's outer span
        assert {e["depth"] for e in inner} == {1}
        assert {e["parent"] for e in inner} == {"outer"}
        assert {e["depth"] for e in outer} == {0}

    def test_snapshots_race_free_against_writers(self):
        import threading

        tracer = Tracer()
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    tracer.counters()
                    tracer.gauges()
                    tracer.timings()
                except RuntimeError as exc:  # dict changed size, ...
                    errors.append(exc)
                    return

        snap = threading.Thread(target=reader)
        snap.start()

        def work(i):
            for k in range(self.PER_THREAD):
                tracer.count(f"hammer.{k % 97}")
                tracer.gauge(f"gauge.{k % 89}", k)

        try:
            self._hammer(work)
        finally:
            stop.set()
            snap.join()
        assert errors == []
