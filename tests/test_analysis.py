"""Tests for the run-analysis diagnostics."""

import pytest

from repro.core import analyze_result, picola_encode
from repro.encoding import ConstraintSet, FaceConstraint


def cset_of(n, groups):
    syms = [f"s{i}" for i in range(n)]
    return ConstraintSet(
        syms, [FaceConstraint({f"s{i}" for i in g}) for g in groups]
    )


class TestAnalyzeResult:
    def test_satisfied_diagnosis(self):
        cs = cset_of(4, [[0, 1]])
        analysis = analyze_result(picola_encode(cs))
        (diag,) = analysis.diagnoses
        assert diag.status == "satisfied"
        assert diag.intruders == ()
        assert diag.theorem1_cubes == 1
        assert "face" in diag.reason

    def test_infeasible_diagnosis_capacity(self):
        cs = cset_of(8, [[0, 1, 2, 3, 4]])  # impossible in B^3
        analysis = analyze_result(picola_encode(cs))
        (diag,) = analysis.diagnoses
        assert diag.status == "infeasible"
        assert "capacity" in diag.reason
        assert diag.intruders  # someone must sit on the face

    def test_estimated_total(self):
        cs = cset_of(8, [[0, 1], [2, 3], [0, 1, 2, 3, 4]])
        analysis = analyze_result(picola_encode(cs))
        assert analysis.estimated_total_cubes >= 3

    def test_render_mentions_every_constraint(self):
        cs = cset_of(6, [[0, 1], [2, 3, 4]])
        text = analyze_result(picola_encode(cs)).render()
        assert "s0" in text and "s2" in text
        assert "estimated implementation" in text

    def test_guide_reported(self):
        cs = cset_of(8, [[0, 1, 2, 3, 4]])
        result = picola_encode(cs)
        analysis = analyze_result(result)
        (diag,) = analysis.diagnoses
        if result.guides_added:
            assert diag.guide is not None

    def test_theorem1_estimate_consistent_with_evaluator(self):
        """The Theorem I estimate never undershoots espresso's count
        when its hypothesis holds (it is a constructive bound)."""
        from repro.encoding import cubes_for_constraint

        cs = cset_of(8, [[0, 1, 2, 3, 4], [0, 5]])
        result = picola_encode(cs)
        analysis = analyze_result(result)
        for diag in analysis.diagnoses:
            if diag.theorem1_cubes is None:
                continue
            exact = cubes_for_constraint(
                result.encoding, diag.constraint
            )
            assert exact <= diag.theorem1_cubes


# ---------------------------------------------------------------------------
# repro.analysis — the static-analysis framework (PR 4)
# ---------------------------------------------------------------------------

import json
import warnings

from repro.analysis import DEFAULT_RULES, analyze, rules_by_id
from repro.analysis.cli import main as lint_main
from repro.analysis.report import JSON_SCHEMA_VERSION


def _tree(tmp_path, files):
    """Write ``{relpath: source}`` under a fake ``repro`` package."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return root


def _lint(tmp_path, files):
    report = analyze(_tree(tmp_path, files), DEFAULT_RULES())
    return report


GOOD_BUDGET = """\
def solve(cover, *, budget=None):
    out = []
    for c in cover:
        if budget is not None:
            budget.tick(where="solve")
        out.append(espresso(c))
    return out

def forwards(cover, *, budget=None):
    return [espresso(c, budget=budget) for c in cover]
"""

BAD_BUDGET = """\
def solve(cover, *, budget=None):
    out = []
    for c in cover:
        out.append(espresso(c))
    return out
"""


class TestRuleFixtures:
    """One good/bad fixture pair per rule family."""

    def test_budget_threading_true_positive(self, tmp_path):
        report = _lint(tmp_path, {"core/k.py": BAD_BUDGET})
        (finding,) = report.findings_for("RPA001")
        assert finding.path == "repro/core/k.py"
        assert "budget" in finding.message

    def test_budget_threading_clean(self, tmp_path):
        report = _lint(tmp_path, {"core/k.py": GOOD_BUDGET})
        assert report.findings_for("RPA001") == []

    def test_budget_rule_ignores_out_of_scope(self, tmp_path):
        report = _lint(tmp_path, {"harness/k.py": BAD_BUDGET})
        assert report.findings_for("RPA001") == []

    def test_span_hygiene_true_positive(self, tmp_path):
        bad = "span = tracer.span('picola/encode')\nspan.__enter__()\n"
        report = _lint(tmp_path, {"core/s.py": bad})
        assert report.findings_for("RPA002")

    def test_span_hygiene_clean(self, tmp_path):
        good = "with tracer.span('picola/encode'):\n    pass\n"
        report = _lint(tmp_path, {"core/s.py": good})
        assert report.findings_for("RPA002") == []

    def test_span_hygiene_exempts_obs(self, tmp_path):
        bad = "span = tracer.span('x')\n"
        report = _lint(tmp_path, {"obs/tracer.py": bad})
        assert report.findings_for("RPA002") == []

    def test_except_hygiene_true_positive(self, tmp_path):
        bad = (
            "try:\n    work()\nexcept Exception:\n    pass\n"
        )
        report = _lint(tmp_path, {"harness/h.py": bad})
        (finding,) = report.findings_for("RPA003")
        assert "swallows" in finding.message

    def test_except_hygiene_reraise_is_clean(self, tmp_path):
        good = (
            "try:\n    work()\n"
            "except Exception as exc:\n"
            "    raise WrapperError(str(exc)) from exc\n"
        )
        report = _lint(tmp_path, {"harness/h.py": good})
        assert report.findings_for("RPA003") == []

    def test_raise_taxonomy_true_positive(self, tmp_path):
        bad = "def f(x):\n    raise ValueError('bad x')\n"
        report = _lint(tmp_path, {"fsm/m.py": bad})
        (finding,) = report.findings_for("RPA004")
        assert "ValueError" in finding.message

    def test_raise_taxonomy_clean_on_taxonomy_class(self, tmp_path):
        good = "def f(x):\n    raise InvalidSpecError('bad x')\n"
        report = _lint(tmp_path, {"fsm/m.py": good})
        assert report.findings_for("RPA004") == []

    def test_raise_taxonomy_ignores_non_solver_code(self, tmp_path):
        bad = "def f(x):\n    raise ValueError('bad x')\n"
        report = _lint(tmp_path, {"harness/cli2.py": bad})
        assert report.findings_for("RPA004") == []

    def test_determinism_true_positive_random(self, tmp_path):
        bad = "import random\n\ndef pick(xs):\n    return random.choice(xs)\n"
        report = _lint(tmp_path, {"baselines/b.py": bad})
        (finding,) = report.findings_for("RPA005")
        assert "unseeded" in finding.message

    def test_determinism_true_positive_set_iteration(self, tmp_path):
        bad = "def f(xs):\n    for x in set(xs):\n        use(x)\n"
        report = _lint(tmp_path, {"core/d.py": bad})
        (finding,) = report.findings_for("RPA005")
        assert "PYTHONHASHSEED" in finding.message

    def test_determinism_clean(self, tmp_path):
        good = (
            "import random\n\n"
            "def pick(xs, seed):\n"
            "    rng = random.Random(seed)\n"
            "    return rng.choice(sorted(set(xs)))\n"
        )
        report = _lint(tmp_path, {"baselines/b.py": good})
        assert report.findings_for("RPA005") == []

    def test_bulk_kernel_loop_true_positive(self, tmp_path):
        bad = (
            "__bulk_kernel__ = True\n"
            "def f(space, cover):\n"
            "    return [c for c in cover if c]\n"
        )
        report = _lint(tmp_path, {"cubes/fast.py": bad})
        (finding,) = report.findings_for("RPA008")
        assert "per-cube" in finding.message

    def test_bulk_kernel_sees_through_sorted(self, tmp_path):
        bad = (
            "__bulk_kernel__ = True\n"
            "def f(onset):\n"
            "    for c in sorted(onset):\n"
            "        pass\n"
        )
        report = _lint(tmp_path, {"cubes/fast.py": bad})
        assert report.findings_for("RPA008")

    def test_bulk_kernel_wrapper_true_positive(self, tmp_path):
        bad = (
            "__bulk_kernel__ = True\n"
            "def f(space, cover):\n"
            "    return Cover(space, cover)\n"
        )
        report = _lint(tmp_path, {"cubes/fast.py": bad})
        (finding,) = report.findings_for("RPA008")
        assert "Cover()" in finding.message

    def test_bulk_kernel_index_loops_clean(self, tmp_path):
        good = (
            "__bulk_kernel__ = True\n"
            "def f(space, kernel, packed, order):\n"
            "    for idx in order:\n"
            "        kernel.row(space, packed, idx)\n"
            "    for value in range(4):\n"
            "        pass\n"
        )
        report = _lint(tmp_path, {"cubes/fast.py": good})
        assert report.findings_for("RPA008") == []

    def test_bulk_kernel_unmarked_module_exempt(self, tmp_path):
        loopy = "def f(cover):\n    return [c for c in cover]\n"
        report = _lint(tmp_path, {"cubes/slow.py": loopy})
        assert report.findings_for("RPA008") == []

    def test_syntax_error_becomes_rpa000(self, tmp_path):
        report = _lint(tmp_path, {"core/broken.py": "def f(:\n"})
        (finding,) = report.findings_for("RPA000")
        assert "syntax error" in finding.message


class TestSuppressions:
    def test_line_suppression_moves_finding_aside(self, tmp_path):
        bad = (
            "def f(x):\n"
            "    raise ValueError('x')  "
            "# repro: noqa[RPA004] -- legacy public contract\n"
        )
        report = _lint(tmp_path, {"fsm/m.py": bad})
        assert report.findings == []
        ((finding, sup),) = report.suppressed
        assert finding.rule == "RPA004"
        assert sup.justification == "legacy public contract"
        assert report.unused_suppressions == []

    def test_bare_noqa_suppresses_every_rule(self, tmp_path):
        bad = "def f(x):\n    raise ValueError('x')  # repro: noqa\n"
        report = _lint(tmp_path, {"fsm/m.py": bad})
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_file_level_suppression(self, tmp_path):
        bad = (
            "# repro: noqa-file[RPA004] -- generated shim\n"
            "def f(x):\n    raise ValueError('x')\n"
            "def g(x):\n    raise RuntimeError('x')\n"
        )
        report = _lint(tmp_path, {"fsm/m.py": bad})
        assert report.findings == []
        assert len(report.suppressed) == 2

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        bad = (
            "def f(x):\n"
            "    raise ValueError('x')  # repro: noqa[RPA001]\n"
        )
        report = _lint(tmp_path, {"fsm/m.py": bad})
        assert report.findings_for("RPA004")
        assert len(report.unused_suppressions) == 1

    def test_unused_suppression_is_reported(self, tmp_path):
        good = "X = 1  # repro: noqa[RPA004] -- nothing here\n"
        report = _lint(tmp_path, {"fsm/m.py": good})
        assert report.findings == []
        (sup,) = report.unused_suppressions
        assert sup.rules == ("RPA004",)


class TestLintCli:
    def test_bad_tree_exits_1_with_rule_ids(self, tmp_path, capsys):
        root = _tree(tmp_path, {"fsm/m.py": "raise ValueError('x')\n"})
        code = lint_main([str(root)])
        out = capsys.readouterr().out
        assert code == 1
        assert "RPA004" in out
        assert "repro/fsm/m.py:1:1" in out

    def test_missing_path_exits_2(self, tmp_path, capsys):
        code = lint_main([str(tmp_path / "nope")])
        assert code == 2

    def test_json_report_schema(self, tmp_path, capsys):
        root = _tree(tmp_path, {"fsm/m.py": "raise ValueError('x')\n"})
        code = lint_main([str(root), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["schema_version"] == JSON_SCHEMA_VERSION
        assert set(doc) == {
            "schema_version",
            "files_checked",
            "findings",
            "suppressed",
            "unused_suppressions",
            "exit_code",
        }
        (finding,) = doc["findings"]
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["rule"] == "RPA004"
        assert doc["exit_code"] == 1

    def test_unused_suppression_fails_plain_lint(self, tmp_path, capsys):
        from repro.harness.cli import main as picola_main

        root = _tree(
            tmp_path, {"fsm/m.py": "X = 1  # repro: noqa[RPA004]\n"}
        )
        assert picola_main(["lint", str(root)]) == 1
        out = capsys.readouterr().out
        assert "repro/fsm/m.py:1: unused suppression" in out
        assert "0 findings (1 unused suppressions)" in out

    def test_list_rules_covers_catalog(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in rules_by_id():
            assert rule_id in out

    def test_picola_lint_subcommand(self, capsys):
        from repro.harness.cli import main as picola_main

        assert picola_main(["lint", "--list-rules"]) == 0
        assert "RPA001" in capsys.readouterr().out

    def test_github_format(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _tree(tmp_path, {"fsm/m.py": "raise ValueError('x')\n"})
        assert lint_main(
            ["repro", "--format", "github"]
        ) == 1
        out = capsys.readouterr().out
        assert (
            "::error file=repro/fsm/m.py,line=1,col=1,"
            "title=RPA004::" in out
        )
        assert out.rstrip().splitlines()[-1].endswith("1 finding")

    def test_github_format_prefix(self, tmp_path, capsys, monkeypatch):
        # the prefix is the scan root's parent relative to the cwd,
        # e.g. src/ when linting src/repro from the repository root
        monkeypatch.chdir(tmp_path)
        _tree(tmp_path / "src", {"fsm/m.py": "raise ValueError('x')\n"})
        assert lint_main(["src/repro", "--format", "github"]) == 1
        assert "::error file=src/repro/fsm/m.py," in capsys.readouterr().out

    def test_github_format_escapes_message(self, tmp_path, capsys):
        # a message containing % or newlines must not break the
        # workflow-command framing
        from repro.analysis.engine import AnalysisReport, Finding
        from repro.analysis.report import render_github

        finding = Finding(
            rule="RPA999",
            path="repro/x.py",
            line=1,
            col=1,
            message="100% bad\nsecond line",
        )
        text = render_github(
            AnalysisReport(findings=[finding], files_checked=1)
        )
        (command,) = [
            line for line in text.splitlines()
            if line.startswith("::error")
        ]
        assert "\n" not in command
        assert "100%25 bad%0Asecond line" in command


class TestSelfCheck:
    """The shipped tree must hold its own invariants."""

    def test_package_is_strict_clean(self, capsys):
        assert lint_main([]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_every_rule_has_id_and_rationale(self):
        for rule_id, cls in rules_by_id().items():
            assert rule_id.startswith("RPA")
            entry = cls.catalog_entry()
            assert entry["title"] and entry["rationale"]

class TestPositionalNvRemoved:
    """``nv`` is keyword-only on exact_encode/nova_encode."""

    def _cset(self):
        syms = [f"s{i}" for i in range(4)]
        return ConstraintSet(
            syms, [FaceConstraint({"s0", "s1"})]
        )

    def test_exact_encode_rejects_positional_nv(self):
        from repro.encoding.exact import exact_encode

        with pytest.raises(TypeError):
            exact_encode(self._cset(), 2)

    def test_nova_encode_rejects_positional_nv(self):
        from repro.baselines.nova import nova_encode

        with pytest.raises(TypeError):
            nova_encode(self._cset(), 2)

    def test_no_deprecation_warning_machinery_left(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.baselines.nova import nova_encode
            from repro.encoding.exact import exact_encode

            exact_encode(self._cset(), nv=2)
            nova_encode(self._cset(), nv=2)
