"""Per-phase profile reports built from a tracer's aggregates.

``profile_report(tracer)`` snapshots the tracer's span-duration
histograms, counters and gauges into a :class:`ProfileReport`, whose
``render()`` prints the per-phase time/counter breakdown used by
the CLI's ``--profile`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from .tracer import Tracer

__all__ = ["ProfileReport", "profile_report"]


def _render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str,
) -> str:
    """Minimal aligned table (obs is a leaf: no harness imports)."""

    def fmt(value: Any) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    table = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in table:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        out = [cells[0].ljust(widths[0])]
        out += [c.rjust(widths[i + 1]) for i, c in enumerate(cells[1:])]
        return "  ".join(out).rstrip()

    parts: List[str] = [title, "=" * len(title), line(headers),
                        line(["-" * w for w in widths])]
    parts += [line(row) for row in table]
    return "\n".join(parts)


@dataclass
class ProfileReport:
    """Aggregated phase timings and counters of one traced run."""

    timings: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "timings": {k: dict(v) for k, v in self.timings.items()},
            "counters": dict(self.counters),
            "gauges": {k: dict(v) for k, v in self.gauges.items()},
        }

    def render(self) -> str:
        parts = []
        if self.timings:
            rows = [
                [
                    name,
                    hist["n"],
                    hist["total"],
                    1000.0 * hist["mean"],
                    1000.0 * (hist["max"] or 0.0),
                ]
                for name, hist in sorted(
                    self.timings.items(),
                    key=lambda item: -item[1]["total"],
                )
            ]
            parts.append(_render_table(
                ["phase", "calls", "total(s)", "mean(ms)", "max(ms)"],
                rows,
                title="Profile - per-phase wall clock",
            ))
        if self.counters:
            rows = [
                [name, value]
                for name, value in sorted(self.counters.items())
            ]
            parts.append(_render_table(
                ["counter", "value"], rows,
                title="Profile - counters",
            ))
        if self.gauges:
            rows = [
                [name, g["last"], g["min"], g["max"]]
                for name, g in sorted(self.gauges.items())
            ]
            parts.append(_render_table(
                ["gauge", "last", "min", "max"], rows,
                title="Profile - gauges",
            ))
        if not parts:
            return "Profile - no spans or counters recorded"
        return "\n\n".join(parts)


def profile_report(tracer: Tracer) -> ProfileReport:
    """Snapshot a tracer's aggregates into a :class:`ProfileReport`."""
    return ProfileReport(
        timings={
            name: hist.to_dict()
            for name, hist in tracer.timings().items()
        },
        counters=tracer.counters(),
        gauges=tracer.gauges(),
    )
