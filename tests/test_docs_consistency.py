"""Documentation consistency: the docs must not drift from the code."""

import json
import pathlib
import re

import repro
from repro.harness.sweep import run_seed_sweep

ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestReadme:
    def test_readme_exists_and_cites_paper(self):
        text = (ROOT / "README.md").read_text()
        assert "PICOLA" in text
        assert "DATE" in text
        assert "Minimum" in text or "minimum" in text

    def test_readme_quickstart_imports_work(self):
        # the README quickstart names these; they must be importable
        from repro import FaceConstraint, picola_encode  # noqa: F401
        from repro import assign_states, load_benchmark  # noqa: F401

    def test_architecture_dirs_exist(self):
        for sub in ["cubes", "espresso", "fsm", "encoding", "core",
                    "baselines", "stateassign", "harness"]:
            assert (ROOT / "src" / "repro" / sub).is_dir(), sub


class TestDesignDoc:
    def test_design_lists_experiments(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "Table I" in text
        assert "Table II" in text
        assert "guide" in text.lower()
        assert "substitution" in text.lower()

    def test_design_confirms_paper_match(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "matches the claimed paper" in text


class TestExperimentsDoc:
    def test_records_paper_vs_measured(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        assert "paper" in text and "measured" in text
        assert "Table I" in text and "Table II" in text
        assert "Seed stability" in text

    def test_cli_commands_documented_exist(self):
        """Every `picola <cmd>` the docs mention must be a real command."""
        from repro.harness.cli import _build_parser

        parser = _build_parser()
        sub = next(
            a for a in parser._actions
            if hasattr(a, "choices") and a.choices
        )
        known = set(sub.choices)
        docs = [ROOT / "README.md", ROOT / "EXPERIMENTS.md",
                ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]
        for doc in docs:
            text = doc.read_text()
            for match in re.finditer(r"picola ([a-z0-9-]+)", text):
                cmd = match.group(1)
                if cmd in ("bench",):  # prose, not a command
                    continue
                assert cmd in known, f"{doc.name} mentions unknown {cmd!r}"


class TestExperimentsNumbers:
    """EXPERIMENTS.md quotes the same numbers as the committed results."""

    @staticmethod
    def _experiments():
        return " ".join((ROOT / "EXPERIMENTS.md").read_text().split())

    @staticmethod
    def _quick_golden():
        data = json.loads((ROOT / "expected" / "table1_quick.json").read_text())
        picola = sum(row["cubes"]["picola"] for row in data["rows"])
        nova = sum(row["cubes"]["nova"] for row in data["rows"])
        return picola, nova, data["summary"]

    def test_table1_claims_match_full_table(self):
        table = (ROOT / ".table1_full.txt").read_text()
        lines = table.splitlines()
        header = next(line.split() for line in lines if line.startswith("FSM "))
        total = next(line.split() for line in lines if line.startswith("total "))
        nova = total[header.index("NOVA")]
        picola = total[header.index("PICOLA")]
        wins = re.search(
            r"PICOLA wins (\d+), NOVA wins (\d+), ties (\d+)", table
        ).groups()
        overhead = re.search(r"NOVA overhead vs PICOLA: ([\d.]+%)", table).group(1)
        text = self._experiments()
        assert f"| PICOLA beats NOVA (rows) | 16 | **{wins[0]}** |" in text
        assert f"| NOVA beats PICOLA (rows) | 7 | **{wins[1]}** |" in text
        assert (
            f"| global NOVA overhead vs PICOLA | ~11% | **{overhead}** "
            f"({nova} vs {picola} cubes; {wins[2]} ties) |"
        ) in text

    def test_seed_sweep_row_0_matches_quick_golden(self):
        picola, nova, summary = self._quick_golden()
        row = f"| 0 | {picola} | {nova} | {summary['nova_overhead']:+.1%} |"
        assert row in self._experiments()

    def test_seed_sweep_table_matches_a_run(self):
        report = run_seed_sweep(jobs=2)
        text = self._experiments()
        section = text.split("## Seed stability", 1)[1].split("## ", 1)[0]
        rows = re.findall(r"\| \d+ \| \d+ \| \d+ \| [+-][\d.]+% \|", section)
        assert len(rows) == len(report.outcomes) == 5
        for o in report.outcomes:
            assert (
                f"| {o.seed} | {o.total_picola} | {o.total_nova} | "
                f"{o.nova_overhead:+.1%} | {o.picola_wins} | "
                f"{o.nova_wins} | {o.ties} |"
            ) in section
        assert all(o.total_picola < o.total_nova for o in report.outcomes)
        assert (
            f"PICOLA stays ahead on every draw (mean overhead "
            f"{report.mean_overhead():.1%} ± "
            f"{100 * report.overhead_stddev():.1f} points)"
        ) in section

    def test_quick_subset_sentence_matches_quick_golden(self):
        _, _, summary = self._quick_golden()
        sentence = (
            f"at seed 0 PICOLA wins {summary['picola_wins']}, "
            f"NOVA {summary['nova_wins']}, ties {summary['ties']}, "
            f"NOVA overhead {summary['nova_overhead']:.1%}"
        )
        assert sentence in self._experiments()


class TestApiDoc:
    def test_top_level_table_names_exist(self):
        """Every name in the first column of docs/api.md's
        "Top level (`repro`)" table is an attribute of ``repro``."""
        text = (ROOT / "docs" / "api.md").read_text()
        section = text.split("## Top level (`repro`)", 1)[1]
        section = section.split("\n## ", 1)[0]
        names = []
        for line in section.splitlines():
            cells = line.split("|")
            if len(cells) < 3 or set(cells[1].strip()) <= {"-"}:
                continue
            names += re.findall(r"`([A-Za-z_]\w*)", cells[1])
        assert len(names) > 20
        missing = [n for n in names if not hasattr(repro, n)]
        assert missing == []


class TestVersion:
    def test_version_consistent(self):
        text = (ROOT / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in text
