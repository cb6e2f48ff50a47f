"""The parallel experiment engine (repro.harness.parallel).

The central guarantee under test: ``--jobs N`` produces byte-identical
rendered tables — and identical JSON modulo wall-clock ``seconds``
fields, which differ even between two serial runs — while preserving
every robustness behavior of the serial path (fault isolation,
checkpoint/resume, fault injection, tracing).
"""

import json
import time

import pytest

from repro.harness import Unit, resolve_jobs, run_units
from repro.harness.ablation import run_ablation
from repro.harness.parallel import UNIT_SPAN
from repro.harness.sweep import run_seed_sweep
from repro.harness.table1 import run_table1
from repro.harness.table2 import run_table2
from repro.obs import (
    MemorySink,
    Tracer,
    profile_report,
    set_tracer,
)
from repro.runtime import (
    Checkpoint,
    InvalidSpecError,
    SolverTimeout,
    faults,
)

FSMS = ["lion9", "ex3", "opus"]


@pytest.fixture(autouse=True)
def _clean_state():
    faults.reset()
    set_tracer(None)
    yield
    faults.reset()
    set_tracer(None)


def scrub_seconds(obj):
    """Drop wall-clock fields; they are nondeterministic run to run."""
    if isinstance(obj, dict):
        return {
            k: scrub_seconds(v)
            for k, v in obj.items()
            if not k.startswith("seconds") and k != "time_ratios"
        }
    if isinstance(obj, list):
        return [scrub_seconds(v) for v in obj]
    return obj


# module-level so the pool can pickle them by reference
def _identity(x):
    return x


def _slow_identity(x, delay):
    time.sleep(delay)
    return x


def _boom(kind):
    if kind == "timeout":
        raise SolverTimeout("injected")
    raise ValueError("injected crash")


class TestResolveJobs:
    def test_default_and_explicit(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(InvalidSpecError):
            resolve_jobs(-1)


class TestEngine:
    def test_results_in_submission_order(self):
        # later units finish first; yielded order must not care
        units = [
            Unit(key="slow", fn=_slow_identity, args=("slow", 0.3)),
            Unit(key="fast", fn=_identity, args=("fast",)),
            Unit(key="mid", fn=_slow_identity, args=("mid", 0.1)),
        ]
        outcomes = list(run_units(units, jobs=3))
        assert [o.value for o in outcomes] == ["slow", "fast", "mid"]
        assert [o.label for o in outcomes] == ["slow", "fast", "mid"]
        assert all(o.ok for o in outcomes)

    def test_worker_failures_come_back_classified(self):
        units = [
            Unit(key="t", fn=_boom, args=("timeout",)),
            Unit(key="ok", fn=_identity, args=(7,)),
            Unit(key="f", fn=_boom, args=("crash",)),
        ]
        t, ok, f = list(run_units(units, jobs=2))
        assert t.status == "timeout"
        assert ok.ok and ok.value == 7
        assert f.status == "failed"
        assert "ValueError" in f.error

    def test_live_lock_in_a_unit_comes_back_failed(self):
        # the pool pickles every submission, and a lock does not
        # pickle: a live resource can never reach a worker mid-state
        import threading

        units = [
            Unit(key="lock", fn=_identity, args=(threading.Lock(),)),
            Unit(key="ok", fn=_identity, args=(7,)),
        ]
        lock, ok = list(run_units(units, jobs=2))
        assert lock.status == "failed"
        assert "pickle" in lock.error
        assert ok.ok and ok.value == 7

    def test_single_unit_stays_serial(self):
        # len(units) <= 1 never pays the pool start-up cost
        outcomes = list(
            run_units([Unit(key="x", fn=_identity, args=(1,))], jobs=8)
        )
        assert outcomes[0].value == 1

    def test_pool_failure_degrades_to_serial(self, monkeypatch):
        import repro.harness.parallel as parallel

        monkeypatch.setattr(parallel, "_start_pool", lambda n: None)
        units = [
            Unit(key=str(i), fn=_identity, args=(i,)) for i in range(3)
        ]
        outcomes = list(run_units(units, jobs=2))
        assert [o.value for o in outcomes] == [0, 1, 2]


class TestDeterminism:
    def test_table1_parallel_matches_serial(self):
        serial = run_table1(FSMS, include_enc=False)
        par = run_table1(FSMS, include_enc=False, jobs=2)
        assert par.render() == serial.render()
        assert scrub_seconds(par.to_dict()) == scrub_seconds(
            serial.to_dict()
        )

    def test_table2_parallel_matches_serial(self):
        # Table II's rendered "time" columns are wall-clock ratios
        # (nondeterministic even serially), so compare the serialized
        # form with seconds/ratios scrubbed instead of render() bytes.
        serial = run_table2(["lion9", "ex3"])
        par = run_table2(["lion9", "ex3"], jobs=2)
        assert scrub_seconds(par.to_dict()) == scrub_seconds(
            serial.to_dict()
        )
        assert [r.sizes for r in par.rows] == [
            r.sizes for r in serial.rows
        ]

    def test_sweep_parallel_matches_serial(self):
        serial = run_seed_sweep(["lion9", "ex3"], seeds=(0, 1))
        par = run_seed_sweep(["lion9", "ex3"], seeds=(0, 1), jobs=2)
        assert par.render() == serial.render()
        assert par.to_dict() == serial.to_dict()

    def test_ablation_parallel_matches_serial(self):
        variants = ["full", "no_guides"]
        serial = run_ablation(["lion9", "ex3"], variants)
        par = run_ablation(["lion9", "ex3"], variants, jobs=2)
        assert par.render() == serial.render()
        assert scrub_seconds(par.to_dict()) == scrub_seconds(
            serial.to_dict()
        )


class TestFaultsReachWorkers:
    def test_armed_fault_fires_inside_worker(self):
        with faults.inject("table1.row", SolverTimeout, key="ex3"):
            report = run_table1(FSMS, include_enc=False, jobs=2)
        assert report.n_failed == 1
        assert report.rows[1].status == "timeout"
        assert report.rows[0].ok and report.rows[2].ok
        assert "FAILED (timeout)" in report.render()


class TestParallelCheckpointing:
    def test_kill_and_resume_skips_checkpointed_rows(self, tmp_path):
        ckpt_path = tmp_path / "t1.ckpt"
        with faults.inject("table1.row", SolverTimeout, key="ex3"):
            first = run_table1(
                FSMS, include_enc=False, jobs=2, checkpoint=ckpt_path
            )
        assert first.n_failed == 1
        ckpt = Checkpoint(ckpt_path)
        # every row is checkpointed, the failed one with its status
        assert sorted(ckpt.keys()) == sorted(FSMS)
        assert ckpt.get("ex3")["status"] == "timeout"

        # resume re-runs nothing — failed rows included.  The armed
        # fault would trip on any re-run (parent or forked worker).
        with faults.inject("table1.row", SolverTimeout) as fault:
            resumed = run_table1(
                FSMS, include_enc=False, jobs=2, checkpoint=ckpt_path
            )
            assert fault.fired == 0
        assert resumed.render() == first.render()
        assert resumed.n_failed == 1

        # --retry-failed releases only the failed row
        retried = run_table1(
            FSMS, include_enc=False, jobs=2,
            checkpoint=ckpt_path, retry_failed=True,
        )
        assert retried.n_failed == 0
        assert Checkpoint(ckpt_path).get("ex3")["status"] == "ok"


class TestTraceAdoption:
    def test_worker_spans_reparented_into_parent_tracer(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        set_tracer(tracer)
        try:
            run_table1(["lion9", "ex3"], include_enc=False, jobs=2)
        finally:
            set_tracer(None)
        spans = [e for e in sink.events if e.get("type") == "span"]
        roots = [s for s in spans if s["name"] == UNIT_SPAN]
        assert len(roots) == 2
        assert sorted(r["attrs"]["label"] for r in roots) == [
            "ex3", "lion9",
        ]
        assert all(r["attrs"]["status"] == "ok" for r in roots)
        # worker spans came along and hang under the synthetic root
        child_names = {s["name"] for s in spans if s["name"] != UNIT_SPAN}
        assert child_names  # solver spans made it across the pool
        assert any(s.get("parent") == UNIT_SPAN for s in spans)
        # counters/gauges merged, so --profile renders a real report
        report = profile_report(tracer)
        text = report.render()
        assert UNIT_SPAN in text

    def test_no_tracer_no_overhead(self):
        # without an enabled tracer the engine ships no obs payloads
        report = run_table1(["lion9", "ex3"], include_enc=False, jobs=2)
        assert report.n_failed == 0


class TestCliJobsFlag:
    def test_jobs_flag_renders_identical_table(self, tmp_path, capsys):
        from repro.harness.cli import main

        out_serial = tmp_path / "serial.json"
        out_par = tmp_path / "par.json"
        main([
            "table1", "--fsm", "lion9", "ex3", "--no-enc",
            "--json", str(out_serial),
        ])
        serial_table = capsys.readouterr().out
        main([
            "table1", "--fsm", "lion9", "ex3", "--no-enc",
            "--jobs", "2", "--json", str(out_par),
        ])
        par_table = capsys.readouterr().out

        def table_lines(text):
            # drop the "wrote <path>" status line; the paths differ
            return [ln for ln in text.splitlines() if ".json" not in ln]

        assert table_lines(par_table) == table_lines(serial_table)
        assert scrub_seconds(
            json.loads(out_par.read_text())
        ) == scrub_seconds(json.loads(out_serial.read_text()))

    def test_negative_jobs_is_a_cli_error(self, capsys):
        from repro.harness.cli import main

        with pytest.raises(SystemExit):
            main(["table1", "--quick", "--jobs", "-2"])
