"""Pluggable tracer sinks: in-memory, console, JSON-lines file.

A sink is anything with ``emit(event: dict)`` (and optionally
``close()``).  The tracer emits one event per completed span as it
closes, plus aggregate ``counters`` / ``gauges`` / ``timings`` events
from :meth:`repro.obs.Tracer.close`.  Event shapes:

``{"type": "span", "name", "parent", "depth", "seconds", "attrs"}``
``{"type": "counters", "values": {name: int}}``
``{"type": "gauges", "values": {name: {last, min, max, n}}}``
``{"type": "timings", "values": {name: {n, total, mean, min, max}}}``
"""

from __future__ import annotations

import io
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional, Union

__all__ = ["Sink", "MemorySink", "ConsoleSink", "JsonlSink"]


class Sink:
    """Interface documentation only; sinks duck-type ``emit``."""

    def emit(self, event: Dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - optional hook
        pass


class MemorySink(Sink):
    """Keeps every event in a list — the test and profiling sink."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    @property
    def spans(self) -> List[Dict[str, Any]]:
        return [e for e in self.events if e["type"] == "span"]

    def counters(self) -> Dict[str, int]:
        for event in reversed(self.events):
            if event["type"] == "counters":
                return dict(event["values"])
        return {}

    def clear(self) -> None:
        self.events.clear()


class ConsoleSink(Sink):
    """Human-readable span lines, indented by nesting depth."""

    def __init__(self, stream: Optional[io.TextIOBase] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def emit(self, event: Dict[str, Any]) -> None:
        if event["type"] == "span":
            indent = "  " * event["depth"]
            attrs = " ".join(
                f"{k}={v}" for k, v in sorted(event["attrs"].items())
            )
            suffix = f" [{attrs}]" if attrs else ""
            self.stream.write(
                f"{indent}{event['name']}: "
                f"{1000 * event['seconds']:.3f}ms{suffix}\n"
            )
        elif event["type"] == "counters" and event["values"]:
            self.stream.write("counters:\n")
            for name, value in sorted(event["values"].items()):
                self.stream.write(f"  {name} = {value}\n")


class JsonlSink(Sink):
    """One JSON object per line; parseable back with ``json.loads``."""

    def __init__(
        self, target: Union[str, pathlib.Path, io.TextIOBase]
    ) -> None:
        if isinstance(target, (str, pathlib.Path)):
            self._handle: Any = open(target, "w")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False

    def emit(self, event: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(event, default=str) + "\n")

    def close(self) -> None:
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()
