"""Parallel experiment engine: fan benchmark units out to a process pool.

Every harness driver (Table I/II rows, sweep ``seed/fsm`` cells,
ablation cells) is a sequence of fully independent *units*; this module
schedules them over worker processes and hands the results back
**deterministically in submission order**, regardless of completion
order — so ``--jobs 4`` produces byte-identical tables and JSON to
``--jobs 1``.

Design contract (mirrors the serial path exactly):

* each unit runs under :func:`~repro.runtime.isolation.run_isolated`
  *inside the worker*, with its own Budget/Deadline, so crashes,
  timeouts and budget blows come back as classified FAILED / TIMEOUT
  / BUDGET outcomes instead of poisoning the pool;
* folding stays in the parent: the experiment driver consumes the
  generator returned by :func:`run_units` in submission order and
  folds each unit into the report as it arrives;
* armed faults (:mod:`repro.runtime.faults`) are snapshotted and
  re-armed in each worker, so fault-injection tests exercise the
  parallel path too (hit counting is per worker process);
* worker tracer events (spans / counters / gauges) are captured in a
  :class:`~repro.obs.MemorySink` and re-parented into the parent
  tracer under a synthetic ``parallel/unit`` span, keeping
  ``--trace`` / ``--profile`` coherent;
* when the pool cannot start (sandboxed environment, missing
  semaphores, unpicklable work), the engine degrades gracefully to
  the serial in-process path.

``jobs`` semantics everywhere: ``1`` (default) is the serial path,
``0`` means one worker per CPU core, ``N > 1`` a fixed pool size.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Tuple

from ..obs import MemorySink, Tracer, resolve_tracer, set_tracer
from ..runtime import InvalidSpecError, faults
from ..runtime.isolation import Outcome, classify_failure, run_isolated

__all__ = ["Unit", "resolve_jobs", "run_units", "UNIT_SPAN"]

#: name of the synthetic parent span adopted worker spans hang under
UNIT_SPAN = "parallel/unit"

#: how long the pool warm-up probe may take before degrading to serial
_START_TIMEOUT = 60.0


@dataclass(frozen=True)
class Unit:
    """One schedulable unit of work: a picklable module-level callable
    plus its arguments.  ``key`` doubles as report key and trace
    label."""

    key: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Map the ``--jobs`` value to a worker count (0 = cpu_count)."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise InvalidSpecError("jobs must be >= 0 (0 = all CPU cores)")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


# ----------------------------------------------------------------------
# worker side (these run in the pool processes; must stay module-level
# so they are picklable by reference under any start method)
# ----------------------------------------------------------------------
def _worker_init(fault_specs) -> None:
    """Pool initializer: neutralize inherited parent state.

    A forked worker inherits the parent's process-wide tracer (whose
    sinks may hold the parent's open ``--trace`` file descriptor) and
    its armed-fault registry; re-arm faults from the snapshot instead
    so counting starts fresh per worker, and drop the tracer — each
    unit installs its own.
    """
    set_tracer(None)
    faults.reset()
    for site, exc, key, after, times in fault_specs:
        faults.arm(site, exc, key=key, after=after, times=times)


def _probe() -> int:
    """Warm-up task proving the pool can actually run work."""
    return os.getpid()


def _run_unit(
    fn: Callable[..., Any],
    args: Tuple[Any, ...],
    kwargs: Dict[str, Any],
    label: str,
    trace: bool,
) -> Tuple[Outcome, Optional[Dict[str, Any]]]:
    """Run one unit inside a worker under the fault boundary.

    Returns the classified :class:`Outcome` plus, when tracing, the
    worker's raw span events and counter/gauge aggregates for the
    parent to adopt.
    """
    sink: Optional[MemorySink] = None
    tracer: Optional[Tracer] = None
    if trace:
        sink = MemorySink()
        tracer = Tracer(sink)
    set_tracer(tracer)
    try:
        outcome = run_isolated(fn, *args, label=label, **kwargs)
    finally:
        set_tracer(None)
    obs: Optional[Dict[str, Any]] = None
    if tracer is not None and sink is not None:
        obs = {
            "spans": sink.spans,
            "counters": tracer.counters(),
            "gauges": tracer.gauges(),
        }
    return outcome, obs


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def _start_pool(workers: int) -> Optional[ProcessPoolExecutor]:
    """Spin up and probe a pool; ``None`` means degrade to serial."""
    specs = [
        (f.site, f.exc, f.key, f.after, f.times)
        for f in faults.active()
    ]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork: use the default
        ctx = multiprocessing.get_context()
    executor: Optional[ProcessPoolExecutor] = None
    try:
        executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_worker_init,
            initargs=(specs,),
        )
        executor.submit(_probe).result(timeout=_START_TIMEOUT)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException:
        # pool start-up failure is the documented degrade-to-serial path, not a
        # swallowed benchmark error
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        return None
    return executor


def _run_serial(units: Iterable[Unit]) -> Iterator[Outcome]:
    """The ``--jobs 1`` path: identical to the historical drivers."""
    for unit in units:
        yield run_isolated(
            unit.fn, *unit.args, label=unit.key, **unit.kwargs
        )


def _adopt_worker_trace(
    tracer: Any, key: str, outcome: Outcome, obs: Dict[str, Any]
) -> None:
    """Re-parent one worker's trace into the parent tracer."""
    if not getattr(tracer, "enabled", False):
        return
    root = {
        "type": "span",
        "name": UNIT_SPAN,
        "seconds": outcome.seconds,
        "attrs": {"label": key, "status": outcome.status},
    }
    tracer.adopt(
        obs["spans"],
        counters=obs["counters"],
        gauges=obs["gauges"],
        root=root,
    )


def run_units(
    units: Iterable[Unit],
    *,
    jobs: int = 1,
    tracer: Optional[Any] = None,
) -> Iterator[Outcome]:
    """Run ``units`` and yield one :class:`Outcome` per unit, in
    submission order (completion order never leaks out).

    ``jobs <= 1`` — or a pool that fails to start — runs everything
    serially in-process, byte-for-byte identical to the historical
    drivers.  The caller folds each yielded outcome before pulling
    the next one, so parent-side
    state advances deterministically even while workers complete out
    of order.
    """
    units = list(units)
    tracer = resolve_tracer(tracer)
    n_jobs = resolve_jobs(jobs)
    if n_jobs <= 1 or len(units) <= 1:
        yield from _run_serial(units)
        return
    executor = _start_pool(min(n_jobs, len(units)))
    if executor is None:  # graceful degradation
        yield from _run_serial(units)
        return
    trace = bool(getattr(tracer, "enabled", False))
    try:
        futures = [
            executor.submit(
                _run_unit, u.fn, u.args, u.kwargs, u.key, trace
            )
            for u in units
        ]
        for unit, future in zip(units, futures):
            try:
                outcome, obs = future.result()
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                # pool/pickling breakage maps to a classified FAILED outcome, same
                # contract as run_isolated
                status, message = classify_failure(exc)
                outcome = Outcome(
                    label=unit.key, status=status, error=message
                )
                obs = None
            if obs is not None:
                _adopt_worker_trace(tracer, unit.key, outcome, obs)
            yield outcome
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
