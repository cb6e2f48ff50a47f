"""End-to-end fault injection: degraded cells, isolated failures,
checkpoint/resume.

These tests force failures at the instrumented sites (see
``repro.runtime.faults``) and assert the ISSUE-level guarantees: one
failing benchmark never takes down an experiment, the report still
renders and serializes, and a killed run resumes from the last
completed benchmark.
"""

import json

import pytest

from repro.harness.ablation import run_ablation
from repro.harness.cli import main
from repro.harness.sweep import run_seed_sweep
from repro.harness.table1 import run_table1
from repro.harness.table2 import run_table2
from repro.runtime import (
    BudgetExceeded,
    Checkpoint,
    ReproError,
    SolverTimeout,
    faults,
)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


class TestTable1Degradation:
    def test_enc_timeout_marks_cell_not_row(self):
        """A SolverTimeout inside ENC degrades one cell; the row's
        PICOLA/NOVA comparison and the other rows are untouched."""
        with faults.inject("enc.minimize", SolverTimeout):
            report = run_table1(
                ["lion9", "ex3"], include_enc=True, enc_budget=2000
            )
        assert [r.fsm for r in report.rows] == ["lion9", "ex3"]
        assert all(r.ok for r in report.rows)
        assert report.n_failed == 0
        hit, clean = report.rows
        assert hit.enc_status == "timeout"
        assert hit.cubes_enc is None
        assert hit.cubes_picola is not None  # comparison survived
        assert clean.enc_status is None
        assert "TIMEOUT" in report.render()
        # partial report serializes
        data = json.loads(json.dumps(report.to_dict()))
        assert data["rows"][0]["enc_status"] == "timeout"
        assert data["summary"]["failed"] == 0

    def test_row_timeout_isolated(self):
        with faults.inject("table1.row", SolverTimeout, key="ex3"):
            report = run_table1(["lion9", "ex3"], include_enc=False)
        assert report.n_failed == 1
        lion9, ex3 = report.rows
        assert lion9.ok and lion9.cubes_picola is not None
        assert ex3.status == "timeout"
        assert "FAILED (timeout)" in report.render()
        # summary statistics only aggregate the surviving rows
        assert (
            report.picola_wins + report.nova_wins + report.ties == 1
        )
        data = json.loads(json.dumps(report.to_dict()))
        assert data["rows"][1]["status"] == "timeout"
        assert data["summary"]["failed"] == 1

    def test_row_crash_isolated(self):
        with faults.inject(
            "table1.row", ReproError("synthetic crash"), key="lion9"
        ):
            report = run_table1(["lion9", "ex3"], include_enc=False)
        assert report.rows[0].status == "failed"
        assert "synthetic crash" in report.rows[0].error
        assert report.rows[1].ok
        assert "FAILED (ReproError)" in report.render()


class TestTable2Degradation:
    def test_row_failure_renders_and_serializes(self):
        with faults.inject("table2.row", SolverTimeout, key="dk16"):
            report = run_table2(["dk16"])
        assert report.n_failed == 1
        assert report.rows[0].status == "timeout"
        assert "FAILED (timeout)" in report.render()
        data = json.loads(json.dumps(report.to_dict()))
        assert data["rows"][0]["status"] == "timeout"
        assert data["summary"]["failed"] == 1


class TestAblationDegradation:
    def test_exact_budget_degrades_cell(self):
        """BudgetExceeded in exact_encode marks the exact cell BUDGET;
        the PICOLA variants of the same FSM still report numbers."""
        with faults.inject("exact.node", BudgetExceeded):
            report = run_ablation(
                ["lion9"], ["full"], include_exact=True
            )
        assert report.n_failed == 0
        assert report.cubes["lion9"]["full"] is not None
        assert report.cubes["lion9"]["exact"] is None
        assert report.cell_status["lion9"]["exact"] == "budget"
        assert "BUDGET" in report.render()
        data = json.loads(json.dumps(report.to_dict()))
        assert data["cell_status"]["lion9"]["exact"] == "budget"
        # totals skip the degraded cell instead of crashing on None
        assert data["totals"]["exact"] == 0

    def test_whole_fsm_failure_isolated(self):
        with faults.inject(
            "ablation.fsm", ReproError, key="lion9"
        ):
            report = run_ablation(["lion9", "ex3"], ["full"])
        assert report.failures == {"lion9": "ReproError"}
        assert report.cubes["ex3"]["full"] is not None
        assert "FAILED (ReproError)" in report.render()
        json.loads(json.dumps(report.to_dict()))


class TestSweepDegradation:
    def test_cell_failure_excluded_from_totals(self):
        with faults.inject(
            "sweep.benchmark", SolverTimeout, key="0/ex3"
        ):
            report = run_seed_sweep(["lion9", "ex3"], seeds=(0,))
        assert report.failures == {(0, "ex3"): "timeout"}
        assert len(report.outcomes) == 1
        assert report.outcomes[0].total_picola > 0
        assert "failed" in report.render()
        data = json.loads(json.dumps(report.to_dict()))
        assert data["failures"] == {"0/ex3": "timeout"}

    def test_seed_with_no_completed_cells_is_excluded(self):
        """A seed every one of whose cells failed must not appear as
        an all-zero outcome row: that row's fake 0.0 nova_overhead
        would drag mean_overhead() toward zero and inflate
        overhead_stddev()."""
        with faults.inject(
            "sweep.benchmark", SolverTimeout, key="0/lion9"
        ), faults.inject(
            "sweep.benchmark", SolverTimeout, key="0/ex3"
        ):
            report = run_seed_sweep(["lion9", "ex3"], seeds=(0, 1))
        # seed 0 lost both cells; seed 1 completed normally
        assert report.skipped_seeds == [0]
        assert [o.seed for o in report.outcomes] == [1]
        assert len(report.failures) == 2
        good = report.outcomes[0].nova_overhead
        assert report.mean_overhead() == pytest.approx(good)
        assert report.overhead_stddev() == 0.0  # one sample, no spread
        assert "excluded from the aggregate" in report.render()
        data = json.loads(json.dumps(report.to_dict()))
        assert data["skipped_seeds"] == [0]
        assert data["summary"]["skipped_seeds"] == 1


class TestCheckpointResume:
    def test_table1_resume_skips_completed_rows(self, tmp_path):
        ckpt_path = tmp_path / "table1.ckpt"
        first = run_table1(
            ["lion9"], include_enc=False, checkpoint=ckpt_path
        )
        assert Checkpoint(ckpt_path).is_done("lion9")

        # a fault armed on the completed row must never fire: resume
        # loads it from the checkpoint instead of recomputing
        with faults.inject(
            "table1.row", SolverTimeout, key="lion9"
        ) as fault:
            second = run_table1(
                ["lion9", "ex3"], include_enc=False,
                checkpoint=ckpt_path,
            )
            assert fault.fired == 0
        assert all(r.ok for r in second.rows)
        assert (
            second.rows[0].cubes_picola == first.rows[0].cubes_picola
        )

    def test_table1_failed_rows_checkpoint_with_status(self, tmp_path):
        """Failures are checkpointed too: a deterministically failing
        benchmark is not re-run on every --resume."""
        ckpt_path = tmp_path / "table1.ckpt"
        with faults.inject("table1.row", SolverTimeout, key="ex3"):
            report = run_table1(
                ["lion9", "ex3"], include_enc=False,
                checkpoint=ckpt_path,
            )
        assert report.n_failed == 1
        ckpt = Checkpoint(ckpt_path)
        assert ckpt.is_done("lion9")
        assert ckpt.is_done("ex3")
        assert ckpt.get("ex3")["status"] == "timeout"

        # plain resume restores the recorded failure without re-running
        with faults.inject("table1.row", SolverTimeout) as fault:
            resumed = run_table1(
                ["lion9", "ex3"], include_enc=False,
                checkpoint=ckpt_path,
            )
            assert fault.fired == 0
        assert resumed.n_failed == 1
        assert resumed.rows[1].status == "timeout"
        assert "FAILED (timeout)" in resumed.render()

    def test_table1_retry_failed_reruns_only_failures(self, tmp_path):
        ckpt_path = tmp_path / "table1.ckpt"
        with faults.inject("table1.row", SolverTimeout, key="ex3"):
            run_table1(
                ["lion9", "ex3"], include_enc=False,
                checkpoint=ckpt_path,
            )
        # retry_failed re-runs ex3 (fault no longer armed -> succeeds)
        # but must not touch the completed lion9 row
        with faults.inject(
            "table1.row", SolverTimeout, key="lion9"
        ) as fault:
            retried = run_table1(
                ["lion9", "ex3"], include_enc=False,
                checkpoint=ckpt_path, retry_failed=True,
            )
            assert fault.fired == 0
        assert retried.n_failed == 0
        assert all(r.ok for r in retried.rows)
        assert Checkpoint(ckpt_path).get("ex3")["status"] == "ok"

    def test_sweep_failed_cells_checkpoint_and_resume(self, tmp_path):
        ckpt_path = tmp_path / "sweep.ckpt"
        with faults.inject(
            "sweep.benchmark", SolverTimeout, key="0/ex3"
        ):
            run_seed_sweep(
                ["lion9", "ex3"], seeds=(0,), checkpoint=ckpt_path
            )
        ckpt = Checkpoint(ckpt_path)
        assert ckpt.is_done("0/ex3")
        assert ckpt.get("0/ex3")["status"] == "timeout"

        with faults.inject("sweep.benchmark", SolverTimeout) as fault:
            resumed = run_seed_sweep(
                ["lion9", "ex3"], seeds=(0,), checkpoint=ckpt_path
            )
            assert fault.fired == 0  # nothing re-ran
        assert resumed.failures == {(0, "ex3"): "timeout"}

        retried = run_seed_sweep(
            ["lion9", "ex3"], seeds=(0,), checkpoint=ckpt_path,
            retry_failed=True,
        )
        assert retried.failures == {}
        assert Checkpoint(ckpt_path).get("0/ex3")["picola"] > 0

    def test_ablation_failed_fsm_checkpoints_and_resumes(self, tmp_path):
        ckpt_path = tmp_path / "abl.ckpt"
        with faults.inject("ablation.fsm", ReproError, key="lion9"):
            run_ablation(
                ["lion9", "ex3"], ["full"], checkpoint=ckpt_path
            )
        ckpt = Checkpoint(ckpt_path)
        assert ckpt.is_done("lion9")
        assert ckpt.get("lion9")["status"] == "failed"

        with faults.inject("ablation.fsm", ReproError) as fault:
            resumed = run_ablation(
                ["lion9", "ex3"], ["full"], checkpoint=ckpt_path
            )
            assert fault.fired == 0
        assert resumed.failures == {"lion9": "ReproError"}
        assert resumed.cubes["ex3"]["full"] is not None

        retried = run_ablation(
            ["lion9", "ex3"], ["full"], checkpoint=ckpt_path,
            retry_failed=True,
        )
        assert retried.failures == {}
        assert retried.cubes["lion9"]["full"] is not None

    def test_sweep_kill_and_resume(self, tmp_path):
        """Kill a sweep mid-run (KeyboardInterrupt propagates through
        the fault boundary), then resume from the checkpoint."""
        ckpt_path = tmp_path / "sweep.ckpt"
        with faults.inject(
            "sweep.benchmark", KeyboardInterrupt, key="0/ex3"
        ):
            with pytest.raises(KeyboardInterrupt):
                run_seed_sweep(
                    ["lion9", "ex3"], seeds=(0,),
                    checkpoint=ckpt_path,
                )
        killed = Checkpoint(ckpt_path)
        assert killed.is_done("0/lion9")
        assert not killed.is_done("0/ex3")

        with faults.inject(
            "sweep.benchmark", SolverTimeout, key="0/lion9"
        ) as fault:
            report = run_seed_sweep(
                ["lion9", "ex3"], seeds=(0,), checkpoint=ckpt_path
            )
            assert fault.fired == 0  # completed cell was skipped
        assert report.n_failed == 0
        assert report.outcomes[0].total_picola > 0
        assert Checkpoint(ckpt_path).is_done("0/ex3")

    def test_experiment_tag_guards_against_mixups(self, tmp_path):
        ckpt_path = tmp_path / "run.ckpt"
        run_table1(["lion9"], include_enc=False, checkpoint=ckpt_path)
        from repro.runtime import CheckpointError

        with pytest.raises(CheckpointError):
            run_table2(["dk16"], checkpoint=ckpt_path)


class TestCliAcceptance:
    def test_forced_timeout_yields_complete_table_and_json(
        self, tmp_path, capsys
    ):
        """The ISSUE acceptance criterion: a forced timeout in one
        benchmark produces a complete table with one FAILED (timeout)
        row, valid --json output, and an informative exit code."""
        json_path = tmp_path / "table1.json"
        with faults.inject("table1.row", SolverTimeout, key="ex3"):
            rc = main([
                "table1", "--fsm", "lion9", "ex3", "--no-enc",
                "--json", str(json_path),
            ])
        assert rc == 1  # completed, but with failed rows
        out = capsys.readouterr().out
        assert "FAILED (timeout)" in out
        assert "lion9" in out  # the rest of the table is present
        data = json.loads(json_path.read_text())
        assert len(data["rows"]) == 2
        statuses = {r["fsm"]: r["status"] for r in data["rows"]}
        assert statuses == {"lion9": "ok", "ex3": "timeout"}

    def test_env_var_fault_injection(self, monkeypatch, capsys):
        monkeypatch.setenv(
            "REPRO_FAULTS", "table1.row@lion9=timeout"
        )
        rc = main(["table1", "--fsm", "lion9", "--no-enc"])
        assert rc == 1
        assert "FAILED (timeout)" in capsys.readouterr().out

    def test_resume_flag_skips_completed(self, tmp_path, capsys):
        ckpt_path = tmp_path / "resume.ckpt"
        assert main([
            "table1", "--fsm", "lion9", "--no-enc",
            "--resume", str(ckpt_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "table1", "--fsm", "lion9", "--no-enc",
            "--resume", str(ckpt_path),
        ]) == 0
        assert "resumed from checkpoint" in capsys.readouterr().out

        # a resumed failure is reported as one, not as a success
        failed_path = tmp_path / "failed.ckpt"
        args = [
            "table1", "--fsm", "lion9", "--no-enc",
            "--resume", str(failed_path),
        ]
        with faults.inject("table1.row", SolverTimeout, key="lion9"):
            assert main(args) == 1
        capsys.readouterr()
        assert main(args) == 1
        assert (
            "lion9: FAILED (timeout, resumed from checkpoint)"
            in capsys.readouterr().out
        )

    def test_timeout_flag_accepted(self, capsys):
        assert main([
            "table1", "--fsm", "lion9", "--no-enc",
            "--timeout", "60",
        ]) == 0
        assert "lion9" in capsys.readouterr().out


class TestInstallFromEnvErrors:
    """Malformed REPRO_FAULTS must die classified, never as a trace."""

    @pytest.mark.parametrize("spec,fragment", [
        ("x", "bad fault spec"),
        ("=timeout", "empty site"),
        ("x=nope", "bad fault kind"),
        ("x=timeout:zz", "bad fault count"),
        ("x=timeout:0", "must be >= 1"),
        ("x=timeout:-3", "must be >= 1"),
    ])
    def test_malformed_specs_raise_parse_error(
        self, monkeypatch, spec, fragment
    ):
        from repro.runtime import ParseError
        from repro.runtime.faults import install_from_env

        monkeypatch.setenv("REPRO_FAULTS", spec)
        with pytest.raises(ParseError, match=fragment):
            install_from_env()
        # single-entry specs fail before anything is armed
        assert not faults.active()

    def test_malformed_spec_exits_2_via_cli(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "x=timeout:0")
        assert main(["bench-list"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("picola: error:")
        assert "\n" == err[err.index("\n"):]  # a single line

    def test_empty_and_unset_are_noops(self, monkeypatch):
        from repro.runtime.faults import install_from_env

        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert install_from_env() == []
        monkeypatch.setenv("REPRO_FAULTS", "  ")
        assert install_from_env() == []
        monkeypatch.setenv("REPRO_FAULTS", " , ,")
        assert install_from_env() == []

    def test_valid_spec_arms(self, monkeypatch):
        from repro.runtime.faults import install_from_env

        monkeypatch.setenv(
            "REPRO_FAULTS", "a.site@key1=timeout:2, b.site=error"
        )
        installed = install_from_env()
        assert len(installed) == 2
        assert installed[0].site == "a.site"
        assert installed[0].key == "key1"
        assert installed[0].after == 2
        assert installed[1].site == "b.site"
        assert installed[1].key is None

    def test_arm_rejects_bad_after_classified(self):
        from repro.runtime import InvalidSpecError

        with pytest.raises(InvalidSpecError):
            faults.arm("x", SolverTimeout, after=0)
        # still a ValueError for pre-taxonomy callers
        with pytest.raises(ValueError):
            faults.arm("x", SolverTimeout, after=-1)

    def test_arm_rejects_empty_site(self):
        from repro.runtime import InvalidSpecError

        with pytest.raises(InvalidSpecError, match="non-empty"):
            faults.arm("", SolverTimeout)
