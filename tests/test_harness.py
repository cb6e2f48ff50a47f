"""Tests for the experiment harness (tables, ablations, CLI)."""

import pytest

from repro.harness import (
    ABLATION_VARIANTS,
    render_table,
    run_ablation,
    run_table1,
    run_table2,
)
from repro.harness.cli import main


class TestRenderTable:
    def test_alignment_and_footer(self):
        out = render_table(
            ["name", "x"],
            [["a", 1], ["bb", 22]],
            title="T",
            footer=["tot", 23],
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "tot" in lines[-1]
        assert "23" in lines[-1]

    def test_none_rendering(self):
        out = render_table(["a", "b"], [["x", None]])
        assert "-" in out.splitlines()[-1]

    def test_float_rendering(self):
        out = render_table(["a", "b"], [["x", 1.234]])
        assert "1.23" in out


class TestTable1:
    def test_single_row(self):
        report = run_table1(["bbara"], include_enc=False)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.fsm == "bbara"
        assert row.n_constraints > 0
        assert row.cubes_picola > 0
        assert row.cubes_nova > 0

    def test_enc_runs_on_small(self):
        report = run_table1(
            ["opus"], include_enc=True, enc_budget=4000
        )
        assert report.rows[0].cubes_enc is not None

    def test_render_contains_summary(self):
        report = run_table1(["bbara", "opus"], include_enc=False)
        text = report.render()
        assert "PICOLA wins" in text
        assert "NOVA overhead" in text
        assert "bbara" in text

    def test_statistics(self):
        report = run_table1(
            ["bbara", "opus", "lion9"], include_enc=False
        )
        assert (
            report.picola_wins + report.nova_wins + report.ties
            == len(report.rows)
        )


class TestTable2:
    def test_single_row(self):
        report = run_table2(["dk16"])
        row = report.rows[0]
        assert set(row.sizes) == {"nova_ih", "nova_ioh", "picola"}
        assert all(size > 0 for size in row.sizes.values())
        assert row.time_ratio("nova_ih") == pytest.approx(1.0)

    def test_render(self):
        report = run_table2(["dk16"])
        text = report.render()
        assert "dk16" in text
        assert "NEW total" in text


class TestAblation:
    def test_variants_exist(self):
        assert "full" in ABLATION_VARIANTS
        assert "no_guides" in ABLATION_VARIANTS

    def test_runs_subset(self):
        report = run_ablation(["bbara"], ["full", "no_guides"])
        assert report.cubes["bbara"]["full"] > 0
        assert "total" in report.render()


class TestCli:
    def test_bench_list(self, capsys):
        assert main(["bench-list"]) == 0
        out = capsys.readouterr().out
        assert "scf" in out
        assert "scaled from" in out

    def test_table1_quick_single(self, capsys):
        assert main(["table1", "--fsm", "opus", "--no-enc"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_table2_single(self, capsys):
        assert main(["table2", "--fsm", "dk16"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_ablation_single(self, capsys):
        assert main(["ablation", "--fsm", "opus"]) == 0
        assert "Ablation" in capsys.readouterr().out

    def test_encode_kiss_file(self, tmp_path, capsys):
        kiss = tmp_path / "toy.kiss2"
        kiss.write_text(
            ".i 1\n.o 1\n.r a\n0 a a 0\n1 a b 1\n- b a 0\n.e\n"
        )
        assert main(["encode", str(kiss)]) == 0
        out = capsys.readouterr().out
        assert "size=" in out

    def test_encode_benchmark_with_profile(self, capsys):
        assert main(["encode", "bbara", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "bbara/picola: size=" in out
        assert "Profile - per-phase wall clock" in out
        assert "assign/encode" in out

    def test_analyze_command(self, capsys):
        assert main(["analyze", "ex5"]) == 0
        out = capsys.readouterr().out
        assert "constraints" in out
        assert "estimated implementation" in out

    def test_motivation_command(self, capsys):
        assert main(["motivation", "lion9", "--extra-bits", "1"]) == 0
        out = capsys.readouterr().out
        assert "nv=" in out


class TestSerialize:
    def test_table1_json(self, tmp_path):
        import json

        from repro.harness import run_table1

        report = run_table1(["opus"], include_enc=False)
        data = report.to_dict()
        assert data["experiment"] == "table1"
        assert data["rows"][0]["fsm"] == "opus"
        assert "picola_wins" in data["summary"]
        json.loads(json.dumps(data))  # valid JSON

    def test_table2_json(self):
        from repro.harness import run_table2

        report = run_table2(["dk16"])
        data = report.to_dict()
        assert data["rows"][0]["sizes"]["picola"] > 0
        assert "totals" in data["summary"]

    def test_table2_totals_aggregate_all_ok_rows(self):
        """Regression: summary totals used to take the method set
        from only the *first* ok row, so methods that row lacked
        (degraded resume payloads, sharded slices) vanished from the
        totals even when later rows reported them."""
        from repro.harness.table2 import Table2Report, Table2Row

        report = Table2Report(rows=[
            Table2Row(fsm="a", sizes={"nova_ih": 10}),
            Table2Row(
                fsm="b",
                sizes={"nova_ih": 5, "nova_ioh": 7, "picola": 4},
            ),
        ])
        totals = report.to_dict()["summary"]["totals"]
        assert totals == {"nova_ih": 15, "nova_ioh": 7, "picola": 4}

    def test_ablation_json(self):
        from repro.harness import run_ablation

        report = run_ablation(["opus"], ["full"])
        data = report.to_dict()
        assert data["totals"]["full"] >= 0

    def test_cli_json_flag(self, tmp_path, capsys):
        out = tmp_path / "t1.json"
        assert main([
            "table1", "--fsm", "opus", "--no-enc",
            "--json", str(out),
        ]) == 0
        import json

        data = json.loads(out.read_text())
        assert data["experiment"] == "table1"


class TestSeedSweep:
    def test_single_seed_single_fsm(self):
        from repro.harness import run_seed_sweep

        report = run_seed_sweep(["opus"], seeds=(0, 1))
        assert len(report.outcomes) == 2
        assert report.outcomes[0].seed == 0
        text = report.render()
        assert "Seed sweep" in text
        assert "mean NOVA overhead" in text

    def test_stddev_zero_for_single_seed(self):
        from repro.harness import run_seed_sweep

        report = run_seed_sweep(["opus"], seeds=(3,))
        assert report.overhead_stddev() == 0.0

    def test_cli_sweep(self, capsys):
        assert main(["sweep", "--fsm", "opus", "--seeds", "0"]) == 0
        assert "Seed sweep" in capsys.readouterr().out
