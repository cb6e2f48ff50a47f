"""Micro-benchmarks of the cube-list primitives, gated as host-independent ratios.

Four workloads run the :mod:`repro.cubes.bulk` primitives the
tautology/complement/expand hot paths are built from, at representative cover sizes.  Each
workload's time is recorded as a ratio to the pipeline benchmark's
host-speed probe (:func:`pipeline.speed.probe_work`), timed in the
same process between the workload's repeats, so a slower or busier
host scales both and the ratio stays put.  The gate fails when a
workload's ratio rises more than ``TOLERANCE`` above its recorded
value.

All timing goes through :class:`repro.obs.Tracer` spans and their
per-name histograms — the same seam ``--profile`` reports — and each
figure is the fastest repeat, which a busy spell on the host cannot
make faster.

Run:  python benchmarks/test_kernels.py --update   # rewrite BENCH_kernel.json
      python benchmarks/test_kernels.py --check    # fail on a >20% regression
      pytest benchmarks/test_kernels.py            # smoke the workloads once
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
from pathlib import Path

from pipeline.speed import PROBE_WORK, probe_work
from repro.cubes import Space, bulk
from repro.obs import Tracer

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

#: the bench file's ``kernel`` field: the primitives' one implementation
KERNEL = "python"

#: a workload's probe ratio may rise by this fraction of its recorded
#: value before --check fails
TOLERANCE = 0.20

_REPEATS = 15
#: probe samples timed before each workload repeat
_PROBES = 3


def _random_cover(space, n_cubes, seed, dash=0.5):
    rng = random.Random(seed)
    cover = []
    for _ in range(n_cubes):
        cube = 0
        for size, offset in zip(space.part_sizes, space.offsets):
            if rng.random() < dash:
                field = (1 << size) - 1
            else:
                field = 1 << rng.randrange(size)
            cube |= field << offset
        cover.append(cube)
    return cover


# ----------------------------------------------------------------------
# workloads: (cover, body) fixtures over one space
# ----------------------------------------------------------------------

_SPACE = Space.binary(16, 8)
_BIG = _random_cover(_SPACE, 1500, seed=3)
_MID = _random_cover(_SPACE, 500, seed=5)
_PIVOT = _BIG[0]
#: EXPAND's blocking check on ``_BIG``'s columns, built once per
#: off-set as EXPAND builds it, so outside the timed raise round
_BLOCKED = bulk.blocker(_SPACE, _BIG)


def _tautology_node(cover):
    """The per-recursion-node work of the tautology check."""
    bulk.union_info(_SPACE, cover)
    part = bulk.binate_part(_SPACE, cover)
    for value in range(_SPACE.part_sizes[part]):
        bulk.cofactor_value(_SPACE, cover, part, value)


def _complement_absorb(cover):
    """The absorption pass complement runs on intermediate covers."""
    bulk.absorb(cover)


def _expand_raise(cover):
    """One EXPAND raise round: blocked bits + best-raise scoring."""
    _BLOCKED(_PIVOT)
    bulk.best_raise(cover, _PIVOT, _SPACE.universe & ~_PIVOT)


def _containment_dedup(cover):
    """The pairwise-containment dedup closing the EXPAND pass."""
    bulk.dedup_keep_mask(cover)


KERNEL_WORKLOADS = {
    "tautology_node": (_BIG, _tautology_node),
    "complement_absorb": (_MID, _complement_absorb),
    "expand_raise": (_BIG, _expand_raise),
    "containment_dedup": (_BIG, _containment_dedup),
}


def time_kernel_workloads(tracer=None, repeats=_REPEATS):
    """Per workload: its fastest repeat in seconds, and that time over
    the fastest probe timed between its repeats.  The garbage collector
    is off while timing, as in the probe's own sampler."""
    tracer = tracer if tracer is not None else Tracer()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for name, (cover, body) in KERNEL_WORKLOADS.items():
            body(cover)  # warmup
            for _ in range(repeats):
                for _ in range(_PROBES):
                    with tracer.span(f"bench.{name}.probe"):
                        probe_work(PROBE_WORK)
                with tracer.span(f"bench.{name}"):
                    body(cover)
    finally:
        if gc_was_enabled:
            gc.enable()
    timings = tracer.timings()
    results = {}
    for name in KERNEL_WORKLOADS:
        seconds = timings[f"bench.{name}"].minimum
        probe_s = timings[f"bench.{name}.probe"].minimum
        results[name] = {
            "seconds": seconds,
            "probe_ratio": round(seconds / probe_s, 2),
        }
    return results


# ----------------------------------------------------------------------
# pytest smokes
# ----------------------------------------------------------------------

def test_kernel_workloads_record_histograms():
    tracer = Tracer()
    results = time_kernel_workloads(tracer, repeats=1)
    assert set(results) == set(KERNEL_WORKLOADS)
    for name in KERNEL_WORKLOADS:
        assert tracer.timings()[f"bench.{name}"].n == 1
        assert tracer.timings()[f"bench.{name}.probe"].n == _PROBES
        assert results[name]["probe_ratio"] > 0


def test_committed_bench_file_is_consistent():
    data = json.loads(BENCH_FILE.read_text())
    assert set(data) == {"kernel", "probe_work", "workloads", "tolerance"}
    assert data["kernel"] == KERNEL
    assert data["probe_work"] == PROBE_WORK
    assert data["tolerance"] == TOLERANCE
    assert set(data["workloads"]) == set(KERNEL_WORKLOADS)
    for entry in data["workloads"].values():
        assert set(entry) == {"seconds", "probe_ratio"}
        assert entry["seconds"] > 0 and entry["probe_ratio"] > 0


# ----------------------------------------------------------------------
# CLI: --update regenerates BENCH_kernel.json, --check gates on it
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--update", action="store_true", help="rewrite BENCH_kernel.json"
    )
    mode.add_argument(
        "--check",
        action="store_true",
        help="re-measure and fail on a >20%% probe-ratio regression",
    )
    args = parser.parse_args(argv)

    current = {
        "kernel": KERNEL,
        "probe_work": PROBE_WORK,
        "workloads": time_kernel_workloads(),
        "tolerance": TOLERANCE,
    }

    if args.update:
        for name, entry in current["workloads"].items():
            print(f"{name:20s} ratio={entry['probe_ratio']:8.2f}")
        BENCH_FILE.write_text(json.dumps(current, indent=2) + "\n")
        print(f"wrote {BENCH_FILE}")
        return 0

    recorded = json.loads(BENCH_FILE.read_text())
    failures = []
    for name, entry in recorded["workloads"].items():
        want = entry["probe_ratio"]
        got = current["workloads"][name]["probe_ratio"]
        ceiling = want * (1.0 + TOLERANCE)
        status = "ok" if got <= ceiling else "REGRESSED"
        print(f"{name:20s} recorded={want:8.2f} now={got:8.2f}  {status}")
        if got > ceiling:
            failures.append(name)
    if failures:
        print(f"kernel regression in: {', '.join(failures)}")
        return 1
    print("kernel bench within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
