"""The fuzz corpus: findings committed as regression tests.

A finding of the fuzz property tests — hypothesis reports it as its
smallest failing ``(family, seed)`` — is written as one small JSON file
under the corpus directory (``tests/corpus/`` in this repository),
where the test suite replays it forever, the way schemathesis keeps
``test-corpus/`` next to its generation strategies.

Entry kinds
-----------
* ``case``  — a serialized :class:`~repro.fuzz.FuzzCase` plus the
  solver that failed on it.  ``expect`` records the classification a
  *fixed* tree must produce; a fresh finding is written with
  ``expect: null``, which replays green only once the instance stops
  being a finding (VIOLATION/CRASH).
* ``kiss`` / ``pla`` — raw malformed text that must raise
  :class:`~repro.runtime.ParseError`; regressions for every parser
  crash class the generators surfaced.

File names are content-addressed (``<kind>-<family>-<digest>.json``),
so re-discovering a known failure is idempotent.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..runtime import InvalidSpecError, ParseError, faults
from .generators import FuzzCase
from .oracle import FINDINGS, CaseOutcome, run_case

__all__ = [
    "CorpusEntry",
    "entry_for_finding",
    "parser_entry",
    "save_entry",
    "load_corpus",
    "replay_entry",
]

SCHEMA = 1

#: replay timeout: corpus entries are small, so generous is cheap
REPLAY_TIMEOUT = 30.0


@dataclass
class CorpusEntry:
    """One corpus file, parsed."""

    kind: str  # "case" | "kiss" | "pla"
    data: Dict[str, Any]
    path: Optional[str] = None

    @property
    def name(self) -> str:
        return os.path.basename(self.path) if self.path else "<memory>"


def _digest(payload: Dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha1(canonical).hexdigest()[:10]


def entry_for_finding(
    outcome: CaseOutcome, case: FuzzCase
) -> CorpusEntry:
    """Build the corpus entry for one fuzz finding."""
    data: Dict[str, Any] = {
        "schema": SCHEMA,
        "kind": "case",
        "solver": outcome.solver,
        "found": outcome.classification,
        "detail": outcome.detail,
        "expect": None,
        "case": case.to_dict(),
    }
    return CorpusEntry(kind="case", data=data)


def parser_entry(
    kind: str, text: str, *, note: str = ""
) -> CorpusEntry:
    """A malformed-text regression: ``kind`` is ``kiss`` or ``pla``."""
    if kind not in ("kiss", "pla"):
        raise InvalidSpecError(f"parser entry kind must be kiss/pla, not {kind!r}")
    data = {
        "schema": SCHEMA,
        "kind": kind,
        "text": text,
        "expect": "ParseError",
        "note": note,
    }
    return CorpusEntry(kind=kind, data=data)


def save_entry(directory: str, entry: CorpusEntry) -> str:
    """Write ``entry`` under ``directory``; returns the path.

    Idempotent: the file name is derived from the entry content, so a
    re-discovered failure overwrites its own file.
    """
    faults.trip("fuzz.corpus.save")
    os.makedirs(directory, exist_ok=True)
    if entry.kind == "case":
        family = entry.data["case"]["family"]
    else:
        family = entry.kind
    name = f"{entry.kind}-{family}-{_digest(entry.data)}.json"
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        json.dump(entry.data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    entry.path = path
    return path


def load_corpus(directory: str) -> List[CorpusEntry]:
    """Parse every ``*.json`` corpus file, sorted by name."""
    entries: List[CorpusEntry] = []
    if not os.path.isdir(directory):
        return entries
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        with open(path) as handle:
            try:
                data = json.load(handle)
            except ValueError as exc:
                raise ParseError(
                    f"corpus file {name} is not valid JSON: {exc}"
                ) from exc
        _check_shape(name, data)
        entries.append(CorpusEntry(kind=data["kind"], data=data, path=path))
    return entries


def _check_shape(name: str, data: Any) -> None:
    """Raise :class:`ParseError` unless ``data`` is a replayable entry:
    a JSON object of a known schema/kind whose ``case`` is an object
    (``case`` entries) or whose ``text`` is a string (``kiss``/``pla``).
    """
    if not isinstance(data, dict):
        raise ParseError(
            f"corpus file {name} holds a JSON {type(data).__name__}, "
            "not an object"
        )
    kind = data.get("kind")
    if data.get("schema") != SCHEMA or kind not in ("case", "kiss", "pla"):
        raise ParseError(
            f"corpus file {name} has unknown schema/kind "
            f"({data.get('schema')!r}/{kind!r})"
        )
    field, wanted = ("case", dict) if kind == "case" else ("text", str)
    if not isinstance(data.get(field), wanted):
        raise ParseError(
            f"corpus file {name}: a {kind!r} entry needs a "
            f"{wanted.__name__} {field!r} field"
        )


def replay_entry(
    entry: CorpusEntry, *, timeout: Optional[float] = REPLAY_TIMEOUT
) -> Tuple[bool, str]:
    """Re-run one corpus entry; ``(ok, detail)``.

    * parser entries must raise :class:`ParseError`;
    * ``case`` entries must reproduce ``expect`` when set, and must
      simply no longer be a finding when ``expect`` is null.

    An entry whose data is not a replayable ``entry.kind`` entry raises
    :class:`ParseError`, as :func:`load_corpus` does for its file.
    """
    _check_shape(entry.name, entry.data)
    if entry.data["kind"] != entry.kind:
        raise ParseError(
            f"corpus entry {entry.name} is a {entry.kind!r} entry "
            f"holding {entry.data['kind']!r} data"
        )
    if entry.kind in ("kiss", "pla"):
        from ..espresso import parse_pla
        from ..fsm import parse_kiss

        parser = parse_kiss if entry.kind == "kiss" else parse_pla
        try:
            parser(entry.data["text"])
        except ParseError:
            return True, "raised ParseError"
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            # replay records the wrong exception class as a red result instead of
            # crashing the loader
            return False, (
                f"raised {type(exc).__name__} instead of ParseError: "
                f"{exc}"
            )
        return False, "parsed successfully, expected ParseError"

    case = FuzzCase.from_dict(entry.data["case"])
    outcome = run_case(
        case, entry.data.get("solver", "picola"), timeout=timeout
    )
    expect = entry.data.get("expect")
    if expect is not None:
        if outcome.classification == expect:
            return True, f"reproduced {expect}"
        return False, (
            f"expected {expect}, got {outcome.classification}"
            + (f" [{outcome.detail}]" if outcome.detail else "")
        )
    if outcome.classification in FINDINGS:
        return False, (
            f"still a finding: {outcome.classification}"
            + (f" [{outcome.detail}]" if outcome.detail else "")
        )
    return True, f"no longer a finding ({outcome.classification})"
