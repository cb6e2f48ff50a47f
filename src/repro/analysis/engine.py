"""The static-analysis engine: findings, rules, suppressions, the walk.

The engine is deliberately *dependency-free* (``ast`` + ``tokenize``
only) and imports nothing from the rest of :mod:`repro`, so it can lint
broken trees: a file that fails to import still parses, and a file that
fails to parse becomes an ``RPA000`` finding instead of a crash.

Vocabulary
----------
* a :class:`Finding` is one violation at ``path:line:col`` with a
  stable rule ID;
* a :class:`Rule` inspects one parsed file;
* a suppression is the comment ``# repro: noqa[RPA001]`` (that line),
  ``# repro: noqa`` (that line, all rules) or
  ``# repro: noqa-file[RPA001]`` (whole file); everything after
  `` -- `` is the human justification.  Unused suppressions are
  reported so they cannot accumulate.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "AnalysisReport",
    "FileContext",
    "Finding",
    "Rule",
    "Suppression",
    "analyze",
    "iter_python_files",
]

#: rule ID reserved for files the engine itself cannot process
SYNTAX_RULE_ID = "RPA000"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?P<file>-file)?"
    r"(?:\[(?P<rules>[A-Z0-9,\s]+)\])?"
    r"(?:\s*--\s*(?P<why>.*))?",
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str  # posix path relative to the scan root's parent
    line: int
    col: int
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class Suppression:
    """One ``# repro: noqa`` comment and its usage accounting."""

    path: str
    line: int
    rules: Optional[Tuple[str, ...]]  # None = every rule
    file_level: bool
    justification: str
    used: bool = False

    def matches(self, finding: Finding) -> bool:
        if self.path != finding.path:
            return False
        if not self.file_level and self.line != finding.line:
            return False
        return self.rules is None or finding.rule in self.rules

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rules": list(self.rules) if self.rules else None,
            "file_level": self.file_level,
            "justification": self.justification,
        }


class FileContext:
    """Everything a rule may look at for one file."""

    def __init__(self, path: str, source: str, tree: ast.AST) -> None:
        self.path = path
        self.source = source
        self.tree = tree

    def finding(
        self, rule: "Rule", node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=rule.rule_id,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class Rule:
    """Base class: one named, scoped, per-file check."""

    #: stable ID, e.g. ``RPA001``
    rule_id: str = ""
    #: one-line name for reports and the catalog
    title: str = ""
    #: why the invariant matters (rendered into the rule catalog)
    rationale: str = ""
    #: package-relative directory prefixes this rule applies to
    #: (e.g. ``("repro/core", "repro/espresso")``); empty = everywhere
    scope: Tuple[str, ...] = ()
    #: package-relative prefixes always exempt (e.g. the framework
    #: that defines the API the rule polices)
    exempt: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if any(path.startswith(prefix) for prefix in self.exempt):
            return False
        if not self.scope:
            return True
        return any(path.startswith(prefix) for prefix in self.scope)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    @classmethod
    def catalog_entry(cls) -> Dict[str, object]:
        return {
            "rule": cls.rule_id,
            "title": cls.title,
            "rationale": " ".join(cls.rationale.split()),
            "scope": list(cls.scope) or ["(whole tree)"],
        }


@dataclass
class AnalysisReport:
    """Outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Tuple[Finding, Suppression]] = field(
        default_factory=list
    )
    unused_suppressions: List[Suppression] = field(default_factory=list)
    files_checked: int = 0

    def findings_for(self, rule_id: str) -> List[Finding]:
        return [f for f in self.findings if f.rule == rule_id]

    @property
    def exit_code(self) -> int:
        """0 clean; 1 on any finding or unused suppression."""
        return 1 if self.findings or self.unused_suppressions else 0


def _parse_suppressions(path: str, source: str) -> List[Suppression]:
    out: List[Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(tok.string)
            if match is None:
                continue
            rules: Optional[Tuple[str, ...]] = None
            if match.group("rules"):
                rules = tuple(
                    r.strip()
                    for r in match.group("rules").split(",")
                    if r.strip()
                )
            out.append(
                Suppression(
                    path=path,
                    line=tok.start[0],
                    rules=rules,
                    file_level=match.group("file") is not None,
                    justification=(match.group("why") or "").strip(),
                )
            )
    except tokenize.TokenError:
        pass  # the parse error is reported as RPA000 by the walk
    return out


def iter_python_files(root: Path) -> Iterator[Path]:
    """Every ``*.py`` under ``root`` (or ``root`` itself), sorted."""
    if root.is_file():
        yield root
        return
    yield from sorted(root.rglob("*.py"))


def _relative_path(file_path: Path, root: Path) -> str:
    """Package-relative posix path, e.g. ``repro/core/picola.py``."""
    base = root if root.is_dir() else root.parent
    try:
        rel = file_path.resolve().relative_to(base.resolve().parent)
    except ValueError:
        rel = Path(file_path.name)
    return rel.as_posix()


def analyze(root: Path, rules: Sequence[Rule]) -> AnalysisReport:
    """Run ``rules`` over every Python file under ``root``.

    Findings matching a ``# repro: noqa`` suppression are moved aside;
    unused suppressions are reported so stale ones fail the run.
    """
    report = AnalysisReport()
    suppressions: List[Suppression] = []
    raw: List[Finding] = []

    for file_path in iter_python_files(root):
        rel = _relative_path(file_path, root)
        try:
            source = file_path.read_text()
        except OSError as exc:
            raw.append(
                Finding(SYNTAX_RULE_ID, rel, 1, 1, f"unreadable: {exc}")
            )
            continue
        report.files_checked += 1
        try:
            tree = ast.parse(source, filename=str(file_path))
        except SyntaxError as exc:
            raw.append(
                Finding(
                    SYNTAX_RULE_ID,
                    rel,
                    exc.lineno or 1,
                    (exc.offset or 0) + 1,
                    f"syntax error: {exc.msg}",
                )
            )
            continue
        ctx = FileContext(rel, source, tree)
        suppressions.extend(_parse_suppressions(rel, source))
        for rule in rules:
            if rule.applies_to(rel):
                raw.extend(rule.check(ctx))

    raw.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    for finding in raw:
        hit = next(
            (s for s in suppressions if s.matches(finding)), None
        )
        if hit is not None:
            hit.used = True
            report.suppressed.append((finding, hit))
        else:
            report.findings.append(finding)
    report.unused_suppressions = [s for s in suppressions if not s.used]
    return report
