"""Command-line front end: ``picola lint`` / ``python -m repro.analysis``.

Exit codes: 0 clean, 1 violations or unused suppressions, 2 usage
errors (bad path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .engine import analyze
from .report import render_github, render_json, render_text
from .rules import DEFAULT_RULES, RULE_CLASSES

__all__ = ["add_lint_arguments", "main", "run_lint"]


def _package_root() -> Path:
    """The installed ``repro`` package directory (the default target)."""
    return Path(__file__).resolve().parents[1]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``lint`` flags, shared by ``picola lint`` and ``-m``."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to analyze "
        "(default: the installed repro package)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format (github emits ::error workflow commands "
        "for inline PR annotations, with paths relative to the "
        "working directory)",
    )


def _list_rules() -> str:
    lines = []
    for cls in RULE_CLASSES:
        entry = cls.catalog_entry()
        lines.append(f"{entry['rule']}  {entry['title']}")
        lines.append(f"    scope: {', '.join(entry['scope'])}")
        lines.append(f"    {entry['rationale']}")
    return "\n".join(lines)


def _github_prefix(roots: Sequence[Path]) -> str:
    """Repo-relative prefix for annotation paths (e.g. ``src/``)."""
    root = roots[0]
    base = (root if root.is_dir() else root.parent).parent
    try:
        rel = base.resolve().relative_to(Path.cwd().resolve())
    except ValueError:
        return ""
    return "" if rel.as_posix() == "." else rel.as_posix() + "/"


def run_lint(args: argparse.Namespace) -> int:
    """Execute one lint run from parsed arguments."""
    if args.list_rules:
        print(_list_rules())
        return 0

    if args.paths:
        roots = [Path(p) for p in args.paths]
        missing = [p for p in roots if not p.exists()]
        if missing:
            print(
                "picola lint: no such path: "
                + ", ".join(str(p) for p in missing),
                file=sys.stderr,
            )
            return 2
    else:
        roots = [_package_root()]

    rules = DEFAULT_RULES()
    report = analyze(roots[0], rules)
    for root in roots[1:]:
        part = analyze(root, rules)
        report.findings.extend(part.findings)
        report.suppressed.extend(part.suppressed)
        report.unused_suppressions.extend(part.unused_suppressions)
        report.files_checked += part.files_checked

    if args.format == "json":
        print(render_json(report))
    elif args.format == "github":
        print(render_github(report, _github_prefix(roots)))
    else:
        print(render_text(report))
    return report.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Project-aware static analysis: budget threading, span "
            "hygiene, the error taxonomy, determinism and bulk kernels "
            "(rules RPA001-RPA005, RPA008)"
        ),
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
