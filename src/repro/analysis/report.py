"""Text, JSON and GitHub-annotation reporters for lint runs.

The JSON document is the machine interface CI consumes; its shape is
pinned by ``tests/test_analysis.py`` (schema assertions), so treat key
removals as breaking changes and bump ``JSON_SCHEMA_VERSION``.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .engine import AnalysisReport

__all__ = ["render_text", "render_json", "render_github"]

JSON_SCHEMA_VERSION = 2


def _summary(report: AnalysisReport) -> str:
    n = len(report.findings)
    return (
        f"{report.files_checked} files checked: "
        f"{n} finding{'s' if n != 1 else ''}"
    )


def render_text(report: AnalysisReport) -> str:
    lines: List[str] = []
    for finding in report.findings:
        lines.append(
            f"{finding.location()}: {finding.rule} {finding.message}"
        )
    for sup in report.unused_suppressions:
        which = ",".join(sup.rules) if sup.rules else "all"
        lines.append(
            f"{sup.path}:{sup.line}: unused suppression "
            f"(# repro: noqa[{which}]) — nothing to suppress; "
            "delete it"
        )
    summary = _summary(report)
    extras = []
    if report.suppressed:
        extras.append(f"{len(report.suppressed)} suppressed")
    if report.unused_suppressions:
        extras.append(
            f"{len(report.unused_suppressions)} unused suppressions"
        )
    if extras:
        summary += " (" + ", ".join(extras) + ")"
    lines.append(summary)
    return "\n".join(lines)


def _escape_property(value: str) -> str:
    """Escape a workflow-command property (file=, title=)."""
    return (
        value.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
        .replace(":", "%3A")
        .replace(",", "%2C")
    )


def _escape_data(value: str) -> str:
    """Escape workflow-command message data."""
    return (
        value.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
    )


def render_github(report: AnalysisReport, prefix: str = "") -> str:
    """GitHub Actions ``::error`` annotations, one per finding.

    ``prefix`` maps package-relative finding paths onto repo-relative
    ones (``src/`` in this repository's CI) so the annotations attach
    inline to PR diffs.  A plain-text summary line comes last — the
    workflow-command lines are consumed by the runner and never shown
    in the job log body.
    """
    lines: List[str] = []
    for finding in report.findings:
        lines.append(
            f"::error file={_escape_property(prefix + finding.path)},"
            f"line={finding.line},col={finding.col},"
            f"title={_escape_property(finding.rule)}::"
            f"{_escape_data(finding.message)}"
        )
    for sup in report.unused_suppressions:
        which = ",".join(sup.rules) if sup.rules else "all"
        lines.append(
            f"::error file={_escape_property(prefix + sup.path)},"
            f"line={sup.line},"
            f"title={_escape_property('unused suppression')}::"
            + _escape_data(
                f"# repro: noqa[{which}] suppresses nothing; "
                "delete it"
            )
        )
    lines.append(_summary(report))
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    doc: Dict[str, object] = {
        "schema_version": JSON_SCHEMA_VERSION,
        "files_checked": report.files_checked,
        "findings": [f.to_dict() for f in report.findings],
        "suppressed": [
            {"finding": f.to_dict(), "suppression": s.to_dict()}
            for f, s in report.suppressed
        ],
        "unused_suppressions": [
            s.to_dict() for s in report.unused_suppressions
        ],
        "exit_code": report.exit_code,
    }
    return json.dumps(doc, indent=2)
