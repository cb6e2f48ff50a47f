"""Command-line interface: ``picola <command>``.

Commands
--------
* ``table1`` — regenerate the paper's Table I (``--quick`` for the
  small/medium subset).
* ``table2`` — regenerate Table II (state assignment sizes/times).
* ``ablation`` — the DESIGN.md ablations.
* ``encode <benchmark-or-kiss2>`` — state-assign one machine and
  print the encoding plus the minimized two-level size (with
  ``--profile``, also the per-phase timing/counter profile).
* ``sweep`` — the seed-stability sweep of the Table I comparison.
* ``bench-list`` — list the registered benchmark machines.

Robustness: the experiment commands take ``--timeout SECONDS`` (per
solver) and ``--jobs N`` (process-pool parallelism over benchmark
units, ``0`` = all cores, with deterministic submission-order merging
so output matches a serial run byte-for-byte).  Every experiment runs
in seconds, so a killed run is simply re-run.  Structured failures
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
import json
import sys
from typing import List, Optional

from ..encoding import derive_face_constraints
from ..fsm import BENCHMARKS, load_benchmark, parse_kiss
from ..obs import JsonlSink, Tracer, profile_report, set_tracer
from ..runtime import InvalidSpecError, ReproError, faults
from ..stateassign import assign_states
from .ablation import run_ablation
from .sweep import SWEEP_SEEDS, run_seed_sweep
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
            "--jobs", type=nonneg_int, default=1, metavar="N",
            help="worker processes for benchmark units (default 1 = "
                 "serial, 0 = all CPU cores); results are merged "
                 "deterministically, output is identical to a "
                 "serial run",
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

    p4 = sub.add_parser(
        "encode", help="state-assign a benchmark or KISS2 file"
    )
    p4.add_argument("target", help="benchmark name or .kiss2 path")
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

    p8 = sub.add_parser(
        "sweep",
        help="seed-stability sweep of the Table I comparison",
    )
    p8.add_argument(
        "--seeds", type=int, nargs="*", default=list(SWEEP_SEEDS),
        help="FSM-generator seeds (default: %(default)s)",
    )
    p8.add_argument("--fsm", nargs="*", default=None)
    add_json_flag(p8)
    add_runtime_flags(p8)
    add_obs_flags(p8)

    sub.add_parser("bench-list", help="list benchmark machines")
    return parser


def _load_target(target: str):
    if target in BENCHMARKS:
        return load_benchmark(target)
    with open(target) as handle:
        return parse_kiss(handle.read(), name=target)


def _check_fsm_names(names: Optional[List[str]]) -> None:
    """Reject unknown ``--fsm`` names before any row runs."""
    unknown = [name for name in names or () if name not in BENCHMARKS]
    if unknown:
        raise InvalidSpecError(
            f"unknown benchmark(s) {', '.join(unknown)}; "
            "see `picola bench-list`"
        )


def _maybe_json(report, path: Optional[str]) -> None:
    if path is None:
        return
    with open(path, "w") as handle:
        handle.write(json.dumps(report.to_dict(), indent=2))
    print(f"wrote {path}")


def _dispatch(args: argparse.Namespace) -> int:
    profile = getattr(args, "profile", False)
    _check_fsm_names(getattr(args, "fsm", None))
    if args.command == "table1":
        fsms = args.fsm or (QUICK_FSMS if args.quick else None)
        report = run_table1(
            fsms, include_enc=not args.no_enc, verbose=True,
            timeout=args.timeout, jobs=args.jobs,
        )
        print(report.render(profile=profile))
        _maybe_json(report, args.json)
        return 1 if report.n_failed else 0
    elif args.command == "table2":
        fsms = args.fsm or (QUICK_FSMS2 if args.quick else None)
        report = run_table2(
            fsms, verbose=True,
            timeout=args.timeout, jobs=args.jobs,
        )
        print(report.render(profile=profile))
        _maybe_json(report, args.json)
        return 1 if report.n_failed else 0
    elif args.command == "ablation":
        report = run_ablation(
            args.fsm, verbose=True, include_exact=args.exact,
            timeout=args.timeout, jobs=args.jobs,
        )
        print(report.render(profile=profile))
        _maybe_json(report, args.json)
        return 1 if report.n_failed else 0
    elif args.command == "encode":
        fsm = _load_target(args.target)
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
    elif args.command == "sweep":
        report = run_seed_sweep(
            args.fsm, seeds=args.seeds, verbose=True,
            timeout=args.timeout, jobs=args.jobs,
        )
        print(report.render())
        _maybe_json(report, args.json)
        return 1 if report.n_failed else 0
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
    """Install the process-wide tracer for --trace/--profile runs."""
    trace = getattr(args, "trace", None)
    if trace is None and not getattr(args, "profile", False):
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
        if getattr(args, "profile", False):
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
