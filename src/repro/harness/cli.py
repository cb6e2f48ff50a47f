"""Command-line interface: ``picola <command>``.

Commands
--------
* ``table1`` — regenerate the paper's Table I (``--quick`` for the
  small/medium subset).
* ``table2`` — regenerate Table II (state assignment sizes/times).
* ``ablation`` — the DESIGN.md ablations.
* ``encode <file.kiss2>`` — state-assign one KISS2 machine and print
  the encoding plus the minimized two-level size.
* ``profile <target>`` — run one state assignment under the tracer
  and print the per-phase timing/counter profile.
* ``bench-list`` — list the registered benchmark machines.
* ``fuzz`` — generative end-to-end fuzzing of the encode pipeline
  (:mod:`repro.fuzz`): seeded workload generators, the classify-never-
  crash oracle, optional fault-hardening, and a committed regression
  corpus (``--replay``).  Exit codes: 0 clean, 1 findings, 2 bad
  usage/configuration.
* ``lint`` — run the project's static invariant checks
  (:mod:`repro.analysis`) over the source tree.
* ``serve`` — run the encoding daemon (:mod:`repro.service.server`):
  an HTTP/JSON front end with a content-addressed result cache,
  micro-batching over the process pool and bounded-queue
  backpressure.
* ``merge`` — combine the shard checkpoint/stream files written by
  ``--shard K/N`` runs on independent hosts into the full report
  (:mod:`repro.harness.merge`), byte-identical to an unsharded run.

Robustness: the experiment commands take ``--timeout SECONDS`` (per
solver), ``--resume PATH`` (JSON checkpoint; created on first use,
reused to skip completed benchmarks — failed ones included, unless
``--retry-failed``) and ``--jobs N`` (process-pool parallelism over
benchmark units, ``0`` = all cores, with deterministic
submission-order merging so output matches a serial run
byte-for-byte).  Multi-host: ``--shard K/N`` deterministically
restricts a run to every Kth benchmark of N (stamping the checkpoint
with a self-describing shard meta block) and ``--stream PATH``
appends one JSON line per completed cell; ``picola merge`` recombines
either kind of file.  Structured failures
(:class:`~repro.runtime.ReproError`) and I/O errors print a one-line
diagnostic and exit with code 2; an experiment that completes but
contains failed rows exits with code 1.

Observability: every command but ``bench-list`` takes ``--trace PATH``
(JSON-lines span/counter events via :class:`~repro.obs.JsonlSink`)
and ``--profile`` (per-phase wall-clock/counter report after the
command output; the table commands additionally grow per-row
time/nodes columns).  Both install a process-wide
:class:`~repro.obs.Tracer` that the solvers pick up through
:func:`~repro.obs.resolve_tracer`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..encoding import derive_face_constraints
from ..fsm import BENCHMARKS, parse_kiss
from ..obs import JsonlSink, Tracer, profile_report, set_tracer
from ..runtime import ReproError, faults
from ..stateassign import assign_states
from .ablation import run_ablation
from .table1 import QUICK_FSMS, run_table1
from .table2 import QUICK_FSMS2, run_table2

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="picola",
        description=(
            "Face-constrained encoding with minimum code length "
            "(DATE 1999 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def nonneg_seconds(text: str) -> float:
        value = float(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    def nonneg_int(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    def add_runtime_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--timeout", type=nonneg_seconds, default=None,
            metavar="SECONDS",
            help="per-solver wall-clock limit; blown deadlines "
                 "degrade to TIMEOUT/FAILED cells",
        )
        p.add_argument(
            "--resume", default=None, metavar="PATH",
            help="JSON checkpoint file; completed benchmarks "
                 "(failed ones included) are skipped on re-runs",
        )
        p.add_argument(
            "--retry-failed", action="store_true",
            help="with --resume: re-run benchmarks whose "
                 "checkpointed outcome was a failure",
        )
        p.add_argument(
            "--jobs", type=nonneg_int, default=1, metavar="N",
            help="worker processes for benchmark units (default 1 = "
                 "serial, 0 = all CPU cores); results are merged "
                 "deterministically, output is identical to a "
                 "serial run",
        )
        add_shard_flags(p)

    def add_shard_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--shard", default=None, metavar="K/N",
            help="run only this host's deterministic 1-based slice "
                 "of the benchmark list (every Kth unit of N); "
                 "combine the per-shard --resume checkpoints or "
                 "--stream files with 'picola merge'",
        )
        p.add_argument(
            "--stream", default=None, metavar="PATH",
            help="append one JSON line per completed benchmark to "
                 "PATH as it finishes (tail-able progress; 'picola "
                 "merge --from-stream' rebuilds the report from it)",
        )

    def add_json_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--json", default=None, metavar="PATH",
            help="also write the report as JSON",
        )

    def add_obs_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace", default=None, metavar="PATH",
            help="write tracing events (spans, counters, gauges) as "
                 "JSON-lines to PATH",
        )
        p.add_argument(
            "--profile", action="store_true",
            help="collect per-phase timings/counters and print a "
                 "profile report (tables grow time/nodes columns)",
        )

    p1 = sub.add_parser("table1", help="regenerate Table I")
    p1.add_argument("--quick", action="store_true",
                    help="small/medium FSM subset")
    p1.add_argument("--fsm", nargs="*", default=None,
                    help="explicit FSM list")
    p1.add_argument("--no-enc", action="store_true",
                    help="skip the (slow) ENC baseline")
    add_json_flag(p1)
    add_runtime_flags(p1)
    add_obs_flags(p1)

    p2 = sub.add_parser("table2", help="regenerate Table II")
    p2.add_argument("--quick", action="store_true")
    p2.add_argument("--fsm", nargs="*", default=None)
    add_json_flag(p2)
    add_runtime_flags(p2)
    add_obs_flags(p2)

    p3 = sub.add_parser("ablation", help="PICOLA design ablations")
    p3.add_argument("--fsm", nargs="*", default=None)
    p3.add_argument("--exact", action="store_true",
                    help="add the branch-and-bound reference column")
    add_json_flag(p3)
    add_runtime_flags(p3)
    add_obs_flags(p3)

    p4 = sub.add_parser("encode", help="state-assign a KISS2 file")
    p4.add_argument("kiss", help="path to a .kiss2 file")
    p4.add_argument("--method", default="picola")
    add_obs_flags(p4)

    p5 = sub.add_parser(
        "analyze",
        help="explain a PICOLA run on a benchmark or KISS2 file",
    )
    p5.add_argument("target", help="benchmark name or .kiss2 path")
    add_obs_flags(p5)

    p6 = sub.add_parser(
        "motivation",
        help="code length vs implementation cost trade-off",
    )
    p6.add_argument("target", help="benchmark name or .kiss2 path")
    p6.add_argument("--extra-bits", type=int, default=2)
    add_obs_flags(p6)

    p7 = sub.add_parser(
        "export",
        help="state-assign a machine and write BLIF/Verilog netlists",
    )
    p7.add_argument("target", help="benchmark name or .kiss2 path")
    p7.add_argument("--method", default="picola")
    p7.add_argument("--format", choices=["blif", "verilog", "both"],
                    default="both")
    p7.add_argument("--out", default=".", help="output directory")
    add_obs_flags(p7)

    p8 = sub.add_parser(
        "sweep",
        help="seed-stability sweep of the Table I comparison",
    )
    p8.add_argument("--seeds", type=int, nargs="*", default=[0, 1, 2])
    p8.add_argument("--fsm", nargs="*", default=None)
    add_json_flag(p8)
    add_runtime_flags(p8)
    add_obs_flags(p8)

    p9 = sub.add_parser(
        "profile",
        help="state-assign one machine under the tracer and print "
             "the per-phase profile",
    )
    p9.add_argument("target", help="benchmark name or .kiss2 path")
    p9.add_argument("--method", default="picola",
                    help="state-assignment method")
    add_obs_flags(p9)

    sub.add_parser("bench-list", help="list benchmark machines")

    p11 = sub.add_parser(
        "fuzz",
        help="fuzz the encode pipeline end to end (seeded generators, "
             "verification oracle, fault hardening, corpus replay)",
    )
    p11.add_argument(
        "--solver", default="picola", metavar="NAME",
        help="solver registry entry to fuzz (default: picola)",
    )
    p11.add_argument(
        "--generator", action="append", default=None, metavar="FAMILY",
        help="generator family to draw cases from (repeatable; "
             "default: every registered family)",
    )
    p11.add_argument(
        "--max-examples", type=int, default=100, metavar="N",
        help="cases per campaign (default 100)",
    )
    p11.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="base seed; a campaign is a pure function of "
             "(seed, config)",
    )
    p11.add_argument(
        "--scale", type=int, default=24, metavar="N",
        help="symbol-count ceiling per case (default 24)",
    )
    p11.add_argument(
        "--timeout", type=nonneg_seconds, default=10.0,
        metavar="SECONDS",
        help="per-case budget; blown budgets classify as TIMEOUT "
             "(default 10)",
    )
    p11.add_argument(
        "--jobs", type=nonneg_int, default=1, metavar="N",
        help="worker processes (default 1 = serial, 0 = all cores); "
             "results merge deterministically",
    )
    p11.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="distill findings into DIR as committed regressions "
             "(with --replay: the corpus to replay, default "
             "tests/corpus)",
    )
    p11.add_argument(
        "--replay", action="store_true",
        help="replay the committed corpus instead of generating",
    )
    p11.add_argument(
        "--no-harden", action="store_true",
        help="skip the fault-hardening pass (re-running each case "
             "with faults armed at the budget/oracle seams)",
    )
    add_shard_flags(p11)
    add_json_flag(p11)
    add_obs_flags(p11)

    p13 = sub.add_parser(
        "merge",
        help="combine shard checkpoint/stream files (from --shard "
             "K/N runs) into the full report, byte-identical to an "
             "unsharded run",
    )
    p13.add_argument(
        "files", nargs="+", metavar="FILE",
        help="one shard checkpoint (--resume) or stream (--stream) "
             "file per shard; container format is auto-detected",
    )
    p13.add_argument(
        "--from-stream", action="store_true",
        help="force JSONL stream parsing instead of auto-detection",
    )
    add_json_flag(p13)

    p12 = sub.add_parser(
        "serve",
        help="run the encoding daemon (HTTP/JSON, content-addressed "
             "cache, micro-batching, backpressure)",
    )
    p12.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    p12.add_argument(
        "--port", type=nonneg_int, default=8787,
        help="bind port (default 8787; 0 = ephemeral)",
    )
    p12.add_argument(
        "--jobs", type=nonneg_int, default=1, metavar="N",
        help="worker processes per micro-batch (default 1 = "
             "in-process serial, 0 = all cores)",
    )
    p12.add_argument(
        "--cache-size", type=nonneg_int, default=1024, metavar="N",
        help="result-cache capacity in entries (default 1024, "
             "0 disables caching)",
    )
    p12.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="max queued+in-flight requests before 429s (default 64)",
    )
    p12.add_argument(
        "--batch-wait", type=nonneg_seconds, default=0.01,
        metavar="SECONDS",
        help="micro-batch aggregation window (default 0.01)",
    )
    p12.add_argument(
        "--batch-max", type=int, default=16, metavar="N",
        help="max requests per micro-batch (default 16)",
    )
    p12.add_argument(
        "--default-timeout", type=nonneg_seconds, default=None,
        metavar="SECONDS",
        help="QoS timeout applied to requests that carry none "
             "(default: unlimited)",
    )
    add_obs_flags(p12)

    from ..analysis.cli import add_lint_arguments

    p10 = sub.add_parser(
        "lint",
        help="check the source tree against the repo's static "
             "invariants (budget threading, span hygiene, error "
             "taxonomy, determinism, registry conformance)",
    )
    add_lint_arguments(p10)
    return parser


def _load_target(target: str):
    from ..fsm import BENCHMARKS, load_benchmark

    if target in BENCHMARKS:
        return load_benchmark(target)
    with open(target) as handle:
        return parse_kiss(handle.read(), name=target)


def _maybe_json(report, path: Optional[str]) -> None:
    if path is None:
        return
    from .serialize import to_json

    with open(path, "w") as handle:
        handle.write(to_json(report))
    print(f"wrote {path}")


def _dispatch(args: argparse.Namespace) -> int:
    profile = getattr(args, "profile", False)
    if args.command == "lint":
        from ..analysis.cli import run_lint

        return run_lint(args)
    if args.command == "table1":
        fsms = args.fsm or (QUICK_FSMS if args.quick else None)
        report = run_table1(
            fsms, include_enc=not args.no_enc, verbose=True,
            timeout=args.timeout, checkpoint=args.resume,
            jobs=args.jobs, retry_failed=args.retry_failed,
            shard=args.shard, stream=args.stream,
        )
        print(report.render(profile=profile))
        _maybe_json(report, args.json)
        return 1 if report.n_failed else 0
    elif args.command == "table2":
        fsms = args.fsm or (QUICK_FSMS2 if args.quick else None)
        report = run_table2(
            fsms, verbose=True,
            timeout=args.timeout, checkpoint=args.resume,
            jobs=args.jobs, retry_failed=args.retry_failed,
            shard=args.shard, stream=args.stream,
        )
        print(report.render(profile=profile))
        _maybe_json(report, args.json)
        return 1 if report.n_failed else 0
    elif args.command == "ablation":
        report = run_ablation(
            args.fsm, verbose=True, include_exact=args.exact,
            timeout=args.timeout, checkpoint=args.resume,
            jobs=args.jobs, retry_failed=args.retry_failed,
            shard=args.shard, stream=args.stream,
        )
        print(report.render(profile=profile))
        _maybe_json(report, args.json)
        return 1 if report.n_failed else 0
    elif args.command == "profile":
        fsm = _load_target(args.target)
        result = assign_states(fsm, args.method)
        print(result.summary())
    elif args.command == "encode":
        with open(args.kiss) as handle:
            fsm = parse_kiss(handle.read(), name=args.kiss)
        result = assign_states(fsm, args.method)
        print(result.encoding.as_table())
        print(result.summary())
    elif args.command == "analyze":
        from ..core import analyze_result, picola_encode

        fsm = _load_target(args.target)
        cset = derive_face_constraints(fsm)
        print(
            f"{fsm.name}: {fsm.n_states} states, "
            f"{len(cset.nontrivial())} face constraints, "
            f"nv={cset.min_code_length()}"
        )
        print(analyze_result(picola_encode(cset)).render())
    elif args.command == "motivation":
        from ..encoding import length_tradeoff

        fsm = _load_target(args.target)
        cset = derive_face_constraints(fsm)
        print(f"{fsm.name}: length trade-off")
        for p in length_tradeoff(cset, max_extra_bits=args.extra_bits):
            print(
                f"  nv={p.nv}: satisfied {p.satisfied}/{p.total}, "
                f"cubes={p.cubes}, area~{p.area_proxy}"
            )
    elif args.command == "export":
        import os

        from ..export import assignment_to_blif, assignment_to_verilog

        fsm = _load_target(args.target)
        result = assign_states(fsm, args.method)
        base = os.path.join(args.out, fsm.name.replace("/", "_"))
        if args.format in ("blif", "both"):
            path = base + ".blif"
            with open(path, "w") as handle:
                handle.write(assignment_to_blif(result))
            print(f"wrote {path}")
        if args.format in ("verilog", "both"):
            path = base + ".v"
            with open(path, "w") as handle:
                handle.write(assignment_to_verilog(result))
            print(f"wrote {path}")
        print(result.summary())
    elif args.command == "sweep":
        from .sweep import run_seed_sweep

        report = run_seed_sweep(
            args.fsm, seeds=tuple(args.seeds), verbose=True,
            timeout=args.timeout, checkpoint=args.resume,
            jobs=args.jobs, retry_failed=args.retry_failed,
            shard=args.shard, stream=args.stream,
        )
        print(report.render())
        _maybe_json(report, args.json)
        return 1 if report.n_failed else 0
    elif args.command == "fuzz":
        from ..fuzz import FuzzConfig, load_corpus, replay_entry, run_fuzz

        if args.replay:
            directory = args.corpus or "tests/corpus"
            entries = load_corpus(directory)
            if not entries:
                print(f"corpus {directory}: no entries")
                return 0
            n_red = 0
            for entry in entries:
                ok, detail = replay_entry(entry)
                n_red += 0 if ok else 1
                print(f"{'ok ' if ok else 'RED'} {entry.name}: {detail}")
            print(
                f"replayed {len(entries)} corpus entries, "
                f"{n_red} failing"
            )
            return 1 if n_red else 0
        config = FuzzConfig(
            solver=args.solver,
            generators=tuple(args.generator or ()),
            max_examples=args.max_examples,
            seed=args.seed,
            scale=args.scale,
            timeout=args.timeout,
            jobs=args.jobs,
            harden=not args.no_harden,
            corpus=args.corpus,
            shard=args.shard,
            stream=args.stream,
        )
        report = run_fuzz(config)
        print(report.render())
        _maybe_json(report, args.json)
        return 1 if report.n_findings else 0
    elif args.command == "merge":
        from .merge import merge_files

        report, experiment = merge_files(
            args.files, from_stream=args.from_stream
        )
        print(f"merged {len(args.files)} shard file(s): {experiment}")
        print(report.render())
        _maybe_json(report, args.json)
        return 1 if report.n_failed else 0
    elif args.command == "serve":
        from ..service import ServerConfig, serve

        return serve(
            ServerConfig(
                host=args.host,
                port=args.port,
                jobs=args.jobs,
                cache_size=args.cache_size,
                queue_limit=args.queue_limit,
                batch_wait=args.batch_wait,
                batch_max=args.batch_max,
                default_timeout=args.default_timeout,
            )
        )
    elif args.command == "bench-list":
        for name, spec in sorted(BENCHMARKS.items()):
            scaled = f"  [scaled from {spec.scaled_from}]" \
                if spec.scaled_from else ""
            print(
                f"{name}: {spec.inputs}i/{spec.outputs}o/"
                f"{spec.states}s/{spec.terms}p ({spec.source}){scaled}"
            )
    return 0


def _setup_tracer(args: argparse.Namespace) -> Optional[Tracer]:
    """Install the process-wide tracer for --trace/--profile runs.

    The ``profile`` command always traces (that is its whole job).
    """
    trace = getattr(args, "trace", None)
    wants = (
        trace is not None
        or getattr(args, "profile", False)
        or args.command == "profile"
    )
    if not wants:
        return None
    sinks = [JsonlSink(trace)] if trace else []
    tracer = Tracer(*sinks)
    set_tracer(tracer)
    return tracer


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    tracer = _setup_tracer(args)
    try:
        faults.install_from_env()
        code = _dispatch(args)
        if tracer is not None and (
            getattr(args, "profile", False)
            or args.command == "profile"
        ):
            print()
            print(profile_report(tracer).render())
        return code
    except (ReproError, OSError) as exc:
        print(f"picola: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            set_tracer(None)
            tracer.close()
            if getattr(args, "trace", None):
                print(f"wrote trace {args.trace}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
