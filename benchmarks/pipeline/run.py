"""Pipeline benchmark: KISS -> derive_face_constraints -> encoder -> scoring.

Three workloads run the whole pipeline, each chosen to load a
different layer (see README.md in this directory):

* ``table1_encode``  all 33 Table I FSMs: derivation, PICOLA and NOVA,
  then ``evaluate_encoding`` once per encoding;
* ``enc_inloop``     ENC, with its minimizer in the loop, on the 15
  quick FSMs;
* ``table2_assign``  all 19 Table II FSMs through ``assign_states``
  with ``nova_ih`` and ``picola``.

Run from the root of a checkout::

    python3 benchmarks/pipeline/run.py --workload table1_encode \\
        --seed 0 --seconds 25 --trace 0

Every timed pass runs in fresh single-threaded interpreters
(``workloads.py``) with no warm-up, split into two parts that run at
once, one per core.  Each pass synthesizes its FSMs twice: the
reference draw, ``load_benchmark(name, seed=0)``, and the run's own
draw, ``seed=S + 10007`` for ``--seed S``.  The solvers keep the
harness seed 1.  Times are reported at the reference host's speed
(``wall_ref_s``, ``setup_s``; see ``speed.py``), because the shared
host's own speed drifts more than a regression bound.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of
a traced pass and writes its spans to ``.bench_out/pipeline/``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the run manifest.  The exit code is 0 when every output
check passed, 1 when one failed, and 2 when the benchmark could not
run at all.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out" / "pipeline"

#: one untraced pass's elapsed time, both parts at once, on the
#: reference machine (README); ``--seconds`` buys one pass per multiple
#: of it, at least one
NOMINAL_PASS_S = {
    "table1_encode": 24.0,
    "enc_inloop": 34.0,
    "table2_assign": 21.0,
}
#: processes a pass is split into, run at once; never more than cores
PARTS = 2
#: set-up is sampled this many times per untraced run (median reported)
SETUP_SAMPLES = 5
#: a traced pass may leave at most this share of its wall time outside
#: the benchmark's layer spans
MAX_UNATTRIBUTED = 0.05
#: hard limit for one child interpreter
CHILD_TIMEOUT_S = 170

#: the encoder methods whose share of the encode stage is reported
METHODS = ("picola", "nova_ih", "enc")

_SINGLE_THREAD = {
    var: "1" for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class BenchmarkError(Exception):
    """The benchmark could not produce a result at all."""


def child_cmd(
    workload: str,
    seed: int,
    fsms: Optional[List[str]],
    *,
    trace: bool = False,
    setup_only: bool = False,
    part: int = 0,
    parts: int = 1,
) -> List[str]:
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)),
        "--part", str(part), "--parts", str(parts),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if fsms:
        cmd += ["--fsm", *fsms]
    return cmd


def run_children(cmds: List[List[str]]) -> List[Dict[str, Any]]:
    """Run the commands at once, each in a fresh interpreter.

    Every child is waited for, and killed first if the benchmark stops
    early, on every path out of this function.
    """
    # PYTHONPATH is replaced, not extended: the checkout's own source
    # is what gets measured
    env = {**os.environ, **_SINGLE_THREAD, "PYTHONPATH": str(SRC)}
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    children = []
    try:
        for cmd in cmds:
            children.append(subprocess.Popen(
                cmd, env=env, cwd=ROOT, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            ))
        outs = []
        for proc in children:
            try:
                stdout, stderr = proc.communicate(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except subprocess.TimeoutExpired as exc:
                raise BenchmarkError(
                    f"a pass exceeded {CHILD_TIMEOUT_S} s"
                ) from exc
            if proc.returncode != 0:
                raise BenchmarkError(
                    f"{' '.join(proc.args[1:])} exited "
                    f"{proc.returncode}:\n{stderr[-2000:]}"
                )
            outs.append(json.loads(stdout.strip().splitlines()[-1]))
        return outs
    finally:
        for proc in children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def _add_up(values: List[Any]) -> Any:
    """Sum numbers, or dicts of numbers key by key."""
    if isinstance(values[0], dict):
        keys = dict.fromkeys(key for value in values for key in value)
        return {
            key: _add_up([value.get(key, 0) for value in values])
            for key in keys
        }
    return sum(values)


def run_pass(workload, seed, fsms, parts, *, trace=False) -> Dict[str, Any]:
    """One pass, split into ``parts`` processes; their results merged.

    Times, counts and totals add up over the parts, so a pass reads as
    if one process had run it; memory is the largest part's.
    """
    results = run_children([
        child_cmd(workload, seed, fsms, trace=trace, part=k, parts=parts)
        for k in range(parts)
    ])
    merged = {
        key: _add_up([r[key] for r in results])
        for key in ("wall_s", "cpu_s", "ref_s", "check_s", "attempted",
                    "failed", "quality", "scored")
    }
    merged["peak_rss_mb"] = max(r["peak_rss_mb"] for r in results)
    merged["problems"] = [msg for r in results for msg in r["problems"]]
    merged["manifest"] = results[0]["manifest"]
    if trace:
        for key in ("layers", "counters", "espresso_minimize_s"):
            merged[key] = _add_up([r[key] for r in results])
        merged["spans"] = [r["spans"] for r in results]
    return merged


def _same(passes: List[Dict[str, Any]], key: str) -> bool:
    return all(p[key] == passes[0][key] for p in passes)


def cubes_per_constraint(quality: Dict[str, int]) -> float:
    """Cubes (product terms) of every encoding, per face constraint.

    Pooled over the units: the sum of every encoding's cubes over the
    sum of the face constraints each was scored against.  Unlike the
    plain cube total, this hardly moves with the seed's problem sizes.
    """
    cubes = sum(
        v for k, v in quality.items() if k.startswith(("cubes_", "size_"))
    )
    if not quality["constraints"]:
        raise BenchmarkError("the workload derived no face constraints")
    return cubes / quality["constraints"]


def end_to_end(passes, setups) -> Dict[str, Any]:
    return {
        "wall_ref_s": (median([p["ref_s"] for p in passes]), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in passes]), "MB"),
        "cubes_per_constraint": (
            cubes_per_constraint(passes[0]["quality"]), "cubes/constraint"
        ),
    }


def per_layer(traced, plain) -> Dict[str, Any]:
    wall = median([p["wall_s"] for p in traced])
    cpu = median([p["cpu_s"] for p in traced])
    layers = [p["layers"] for p in traced]

    def med(key: str) -> float:
        return median([lay[key] for lay in layers])

    encode = med("encode_s")
    quality = traced[0]["quality"]
    counters = traced[0]["counters"]
    enc_minimizations = counters["enc.minimizations"]
    enc_solve = median([
        lay["encode_by_method"].get("enc", 0.0) for lay in layers
    ])
    ref = median([p["ref_s"] for p in traced])
    metrics: Dict[str, Any] = {
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "host.slowdown": (cpu / ref, "ratio"),
        "stage.load_s": (med("load_s"), "s"),
        "stage.derive_s": (med("derive_s"), "s"),
        "stage.encode_s": (encode, "s"),
        "stage.score_s": (med("score_s"), "s"),
        "espresso.minimize_s": (
            median([p["espresso_minimize_s"] for p in traced]), "s"
        ),
        "unattributed_s": (med("unattributed_s"), "s"),
        "unattributed_frac": (med("unattributed_s") / wall, "fraction"),
        "trace_overhead_frac": (
            ref / median([p["ref_s"] for p in plain]) - 1, "fraction"
        ),
        "check_s": (median([p["check_s"] for p in traced]), "s"),
        "baselines.enc.minimizations_per_s": (
            enc_minimizations / enc_solve if enc_solve else 0.0, "1/s"
        ),
    }
    for method in METHODS:
        seconds = median([
            lay["encode_by_method"].get(method, 0.0) for lay in layers
        ])
        metrics[f"stage.encode.{method}_share"] = (
            seconds / encode if encode else 0.0, "fraction"
        )
    renamed = {
        "picola.beam_states": "core.picola.beam_states",
        "nova.moves": "baselines.nova.moves",
        "enc.minimizations": "baselines.enc.minimizations",
    }
    for name, value in counters.items():
        metrics[renamed.get(name, name)] = (value, "count")
    metrics["baselines.enc.converged"] = (
        quality.get("enc_converged", 0), "count"
    )
    metrics["encoding.evaluate.constraints_scored"] = (
        traced[0]["scored"], "count"
    )
    for name in ("cubes_picola", "cubes_nova", "cubes_enc",
                 "size_picola", "size_nova_ih"):
        metrics[f"quality.{name}"] = (quality.get(name, 0), "cubes")
    metrics["quality.constraints"] = (quality["constraints"], "count")
    return metrics


def write_trace(path: Path, manifest, traced) -> None:
    """Spans of every traced pass, then its self times and counters."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps({"type": "manifest", **manifest}) + "\n")
        for index, result in enumerate(traced):
            for part, records in enumerate(result["spans"]):
                for rec in records:
                    fh.write(json.dumps({
                        "type": "span", "pass": index, "part": part, **rec,
                        "request": f"{rec['request']}-{index}.{part}",
                    }) + "\n")
            fh.write(json.dumps({
                "type": "summary", "pass": index,
                "wall_s": result["wall_s"],
                "self_times": result["layers"]["self_times"],
                "counters": result["counters"],
            }) + "\n")


def run(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program source under {SRC}")
    # the build: byte-compile once, untimed, so that no pass pays it
    if not compileall.compile_dir(str(SRC / "repro"), quiet=2):
        raise BenchmarkError("byte-compiling the program failed")
    passes = max(1, int(args.seconds // NOMINAL_PASS_S[args.workload]))
    parts = min(PARTS, os.cpu_count() or 1)

    plain = [
        run_pass(args.workload, args.seed, args.fsm, parts)
        for _ in range(passes)
    ]
    results = list(plain)
    traced: List[Dict[str, Any]] = []
    setups: List[float] = []
    if args.trace:
        traced = [
            run_pass(args.workload, args.seed, args.fsm, parts, trace=True)
            for _ in range(passes)
        ]
        results += traced
    else:
        # set-up of the whole workload in one process, one at a time,
        # so that no sample waits for a core
        for _ in range(SETUP_SAMPLES):
            [sample] = run_children([child_cmd(
                args.workload, args.seed, args.fsm, setup_only=True
            )])
            setups.append(sample["setup_ref_s"])

    problems = sorted({msg for r in results for msg in r["problems"]})
    if not _same(results, "quality"):
        problems.append("result totals differ between passes")
    if traced:
        if not _same(traced, "counters"):
            problems.append("program counters differ between passes")
        metrics = per_layer(traced, plain)
        share = metrics["unattributed_frac"][0]
        if share > MAX_UNATTRIBUTED:
            problems.append(
                f"{share:.1%} of the traced pass is in no layer span"
            )
    else:
        metrics = end_to_end(plain, setups)

    manifest = {
        **results[0]["manifest"],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "solver_seed": 1,
        "passes": passes,
        "parts": parts,
        "traced_passes": len(traced),
        "setup_samples": len(setups),
    }
    if traced:
        trace_path = OUT_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        write_trace(trace_path, manifest, traced)
        manifest["trace_file"] = str(trace_path.relative_to(ROOT))
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"manifest": manifest}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fsm", nargs="+",
        help="run only these FSMs (smoke tests; not a workload)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be 0 or more")
    # a SIGTERM unwinds like an error, so that every child is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return run(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
