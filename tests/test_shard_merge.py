"""Sharded multi-host runs (``--shard K/N``), their ``--resume`` run
logs and ``picola merge``.

Covers the protocol invariants: the deterministic partition (N shards
cover every unit exactly once), self-describing shard logs,
kill-one-shard-and-resume (a torn final line included), merge
validation (tag/spec/params mismatches, duplicate/missing shards,
foreign or missing cells), and the headline guarantee — a merged
report renders **byte-identical** to an unsharded run, for every
experiment.
"""

import json

import pytest

from repro.harness.ablation import run_ablation
from repro.harness.cli import main
from repro.harness.merge import merge_files
from repro.harness.shard import ShardSpec, parse_shard
from repro.harness.sweep import run_seed_sweep
from repro.harness.table1 import run_table1
from repro.harness.table2 import run_table2
from repro.runtime import (
    Checkpoint,
    CheckpointError,
    InvalidSpecError,
    SolverTimeout,
    faults,
)


class TestShardSpec:
    def test_partition_covers_every_unit_exactly_once(self):
        """The defining property: over all N shards, the partitions
        are disjoint and their union is the full unit list."""
        keys = [f"u{i}" for i in range(17)]
        for total in (1, 2, 3, 5, 16, 17, 20):
            parts = [
                ShardSpec(index=k, total=total).partition(keys)
                for k in range(1, total + 1)
            ]
            flat = [key for part in parts for key in part]
            assert sorted(flat) == sorted(keys)  # cover, no overlap
            assert len(flat) == len(keys)

    def test_partition_is_round_robin_and_ordered(self):
        keys = ["a", "b", "c", "d", "e"]
        assert ShardSpec(1, 2).partition(keys) == ["a", "c", "e"]
        assert ShardSpec(2, 2).partition(keys) == ["b", "d"]
        # a shard beyond the list length simply owns nothing
        assert ShardSpec(7, 8).partition(["a", "b"]) == []

    def test_parse_shard(self):
        assert parse_shard("2/3") == ShardSpec(index=2, total=3)
        assert str(parse_shard("2/3")) == "2/3"
        for bad in ("", "3", "0/2", "3/2", "-1/2", "a/b", "1/2/3"):
            with pytest.raises(InvalidSpecError):
                parse_shard(bad)

    def test_dict_round_trip(self):
        spec = ShardSpec(index=3, total=4)
        assert ShardSpec.from_dict(spec.to_dict()) == spec


class TestShardCheckpointMeta:
    def test_shard_checkpoint_is_self_describing(self, tmp_path):
        path = tmp_path / "s1.json"
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=path, shard="1/2",
        )
        ckpt = Checkpoint(path)
        assert ckpt.meta["experiment"] == "table1"
        assert ckpt.meta["shard"] == {"index": 1, "total": 2}
        assert ckpt.meta["units"] == ["lion9", "ex3"]
        assert ckpt.meta["params"]["include_enc"] is False
        assert ckpt.keys() == ["lion9"]  # shard 1/2 of two rows

    def test_resume_refuses_mismatched_run_spec(self, tmp_path):
        path = tmp_path / "s1.json"
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=path, shard="1/2",
        )
        # same file, different unit universe -> different meta
        with pytest.raises(CheckpointError):
            run_table1(
                ["lion9", "ex3", "opus"], include_enc=False,
                checkpoint=path, shard="1/2",
            )
        # ... different shard spec
        with pytest.raises(CheckpointError):
            run_table1(
                ["lion9", "ex3"], include_enc=False,
                checkpoint=path, shard="2/2",
            )
        # ... different params
        with pytest.raises(CheckpointError):
            run_table1(
                ["lion9", "ex3"], include_enc=False, seed=9,
                checkpoint=path, shard="1/2",
            )

    def test_sharded_resume_refuses_plain_checkpoint(self, tmp_path):
        path = tmp_path / "plain.json"
        run_table1(["lion9"], include_enc=False, checkpoint=path)
        with pytest.raises(CheckpointError):
            run_table1(
                ["lion9"], include_enc=False,
                checkpoint=path, shard="1/1",
            )

    def test_unsharded_resume_refuses_shard_log(self, tmp_path):
        """The converse: a shard's log must not collect the cells of
        an unsharded run, or its merge would see foreign cells."""
        path = tmp_path / "s1.json"
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=path, shard="1/2",
        )
        with pytest.raises(CheckpointError, match="different run"):
            run_table1(["lion9", "ex3"], include_enc=False, checkpoint=path)

    def test_unsharded_resume_still_ignores_params(self, tmp_path):
        """Legacy behavior is preserved: without --shard no meta is
        stamped, so resuming with different knobs keeps working."""
        path = tmp_path / "plain.json"
        run_table1(["lion9"], include_enc=False, checkpoint=path)
        assert Checkpoint(path).meta is None
        report = run_table1(
            ["lion9"], include_enc=False, seed=9, checkpoint=path
        )
        assert report.rows[0].ok


class TestKillAndResumeShard:
    def test_killed_shard_resumes_then_merges(self, tmp_path):
        """Kill one shard mid-run; its checkpoint holds the finished
        cells, a resume completes the remainder, and the merge then
        succeeds."""
        fsms = ["lion9", "ex3", "opus", "train11"]
        s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
        run_table1(
            fsms, include_enc=False, checkpoint=s2, shard="2/2"
        )
        # shard 1 owns lion9 and opus; die on opus
        with faults.inject("table1.row", KeyboardInterrupt, key="opus"):
            with pytest.raises(KeyboardInterrupt):
                run_table1(
                    fsms, include_enc=False,
                    checkpoint=s1, shard="1/2",
                )
        killed = Checkpoint(s1)
        assert killed.is_done("lion9") and not killed.is_done("opus")

        # an incomplete shard is rejected with a pointed diagnostic
        with pytest.raises(CheckpointError, match="missing 1 cell"):
            merge_files([s1, s2])

        with faults.inject(
            "table1.row", SolverTimeout, key="lion9"
        ) as fault:
            run_table1(
                fsms, include_enc=False, checkpoint=s1, shard="1/2"
            )
            assert fault.fired == 0  # finished cell was not re-run
        merged, experiment = merge_files([s1, s2])
        assert experiment == "table1"
        unsharded = run_table1(fsms, include_enc=False)
        assert merged.render() == unsharded.render()

    def test_torn_tail_is_truncated_on_resume(self, tmp_path):
        """A kill during an append leaves half a line; the resume
        recomputes that cell after cutting the file back to its last
        complete line, so the log stays readable and mergeable."""
        fsms = ["lion9", "ex3", "opus"]
        s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
        run_table1(fsms, include_enc=False, checkpoint=s1, shard="1/2")
        run_table1(fsms, include_enc=False, checkpoint=s2, shard="2/2")
        lines = s1.read_text().splitlines()
        assert json.loads(lines[-1])["key"] == "opus"
        s1.write_text(
            "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        )
        assert Checkpoint(s1).keys() == ["lion9"]  # torn line dropped

        with faults.inject(
            "table1.row", SolverTimeout, key="lion9"
        ) as fault:
            run_table1(
                fsms, include_enc=False, checkpoint=s1, shard="1/2"
            )
            assert fault.fired == 0  # only the torn cell re-ran
        relogged = s1.read_text().splitlines()
        assert [json.loads(line).get("key") for line in relogged] == [
            None, "lion9", "opus",
        ]
        merged, _ = merge_files([s1, s2])
        unsharded = run_table1(fsms, include_enc=False)
        assert merged.render() == unsharded.render()

    def test_shard_owning_no_units_still_merges(self, tmp_path):
        """A shard whose slice is empty still writes its log (the
        header is written before any unit runs), so the merge finds
        every shard."""
        s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
        run_table1(["lion9"], include_enc=False, shard="1/2", checkpoint=s1)
        run_table1(["lion9"], include_enc=False, shard="2/2", checkpoint=s2)
        merged, _ = merge_files([s1, s2])
        unsharded = run_table1(["lion9"], include_enc=False)
        assert merged.render() == unsharded.render()


class TestMergeValidation:
    def _two_shards(self, tmp_path, **kwargs):
        s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=s1, shard="1/2", **kwargs,
        )
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=s2, shard="2/2", **kwargs,
        )
        return s1, s2

    def test_merge_needs_files(self):
        with pytest.raises(CheckpointError):
            merge_files([])

    def test_rejects_mismatched_experiments(self, tmp_path):
        t1 = tmp_path / "t1.json"
        t2 = tmp_path / "t2.json"
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=t1, shard="1/2",
        )
        run_table2(["dk16", "s386"], checkpoint=t2, shard="2/2")
        with pytest.raises(CheckpointError, match="cannot merge"):
            merge_files([t1, t2])

    def test_rejects_disagreeing_unit_universe(self, tmp_path):
        s1 = tmp_path / "s1.json"
        s2 = tmp_path / "s2.json"
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=s1, shard="1/2",
        )
        run_table1(
            ["lion9", "opus"], include_enc=False,
            checkpoint=s2, shard="2/2",
        )
        with pytest.raises(CheckpointError, match="unit universe"):
            merge_files([s1, s2])

    def test_rejects_disagreeing_params(self, tmp_path):
        s1 = tmp_path / "s1.json"
        s2 = tmp_path / "s2.json"
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=s1, shard="1/2",
        )
        run_table1(
            ["lion9", "ex3"], include_enc=False, seed=9,
            checkpoint=s2, shard="2/2",
        )
        with pytest.raises(CheckpointError, match="params"):
            merge_files([s1, s2])

    def test_rejects_disagreeing_shard_totals(self, tmp_path):
        s1 = tmp_path / "s1.json"
        s2 = tmp_path / "s2.json"
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=s1, shard="1/1",
        )
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=s2, shard="2/2",
        )
        with pytest.raises(CheckpointError, match="totals must agree"):
            merge_files([s1, s2])

    def test_rejects_duplicate_shards(self, tmp_path):
        s1, _ = self._two_shards(tmp_path)
        with pytest.raises(CheckpointError, match="duplicate shard"):
            merge_files([s1, s1])

    def test_rejects_missing_shards(self, tmp_path):
        s1, _ = self._two_shards(tmp_path)
        with pytest.raises(
            CheckpointError, match="missing shard file"
        ):
            merge_files([s1])

    def test_rejects_foreign_cells(self, tmp_path):
        """A cell outside the shard's own partition means the files
        overlap or were tampered with."""
        s1, s2 = self._two_shards(tmp_path)
        lion9 = json.loads(s1.read_text().splitlines()[1])
        with open(s1, "a") as handle:
            handle.write(json.dumps(dict(lion9, key="ex3")) + "\n")
        with pytest.raises(CheckpointError, match="outside shard"):
            merge_files([s1, s2])

    def test_rejects_plain_checkpoint(self, tmp_path):
        plain = tmp_path / "plain.json"
        run_table1(["lion9"], include_enc=False, checkpoint=plain)
        with pytest.raises(
            CheckpointError, match="not a shard checkpoint"
        ):
            merge_files([plain])

    def test_rejects_unknown_schema(self, tmp_path):
        s1, s2 = self._two_shards(tmp_path)
        header, *cells = s1.read_text().splitlines()
        header = dict(json.loads(header), format="repro-run-log-v99")
        s1.write_text("\n".join([json.dumps(header)] + cells) + "\n")
        with pytest.raises(CheckpointError, match="repro-run-log-v2"):
            merge_files([s1, s2])


class TestMergedRendersByteIdentical:
    """The headline guarantee, per experiment: run N shards, merge,
    compare the rendered report (and JSON modulo wall-clock fields)
    against a plain unsharded run."""

    def test_table1(self, tmp_path):
        fsms = ["lion9", "ex3", "opus"]
        shards = []
        for k in (1, 2):
            path = tmp_path / f"s{k}.json"
            run_table1(
                fsms, include_enc=False,
                checkpoint=path, shard=f"{k}/2",
            )
            shards.append(path)
        merged, _ = merge_files(shards)
        unsharded = run_table1(fsms, include_enc=False)
        assert merged.render() == unsharded.render()

    def test_table1_failed_rows_survive_the_merge(self, tmp_path):
        fsms = ["lion9", "ex3"]
        shards = []
        with faults.inject(
            "table1.row", SolverTimeout, key="ex3", times=2
        ):
            for k in (1, 2):
                path = tmp_path / f"s{k}.json"
                run_table1(
                    fsms, include_enc=False,
                    checkpoint=path, shard=f"{k}/2",
                )
                shards.append(path)
            merged, _ = merge_files(shards)
            unsharded = run_table1(fsms, include_enc=False)
        assert merged.n_failed == 1
        assert merged.render() == unsharded.render()

    def test_table2(self, tmp_path):
        fsms = ["dk16", "s386"]
        shards = []
        for k in (1, 2):
            path = tmp_path / f"s{k}.json"
            run_table2(fsms, checkpoint=path, shard=f"{k}/2")
            shards.append(path)
        merged, _ = merge_files(shards)
        unsharded = run_table2(fsms)
        # Table II renders wall-clock time *ratios*, which no two
        # live runs share — mask them; everything else must match
        # byte for byte (the merge replays the shard cells verbatim,
        # ratios included, so merged == its own shards exactly)
        import re

        def mask_times(text):
            return re.sub(r"\d+\.\d+", "#", text)

        assert mask_times(merged.render()) == mask_times(
            unsharded.render()
        )
        # JSON too, modulo the wall-clock fields
        def scrub(data):
            for row in data["rows"]:
                row["seconds"] = None
                row["time_ratios"] = None
            return data

        assert scrub(merged.to_dict()) == scrub(unsharded.to_dict())

    def test_ablation(self, tmp_path):
        fsms = ["lion9", "ex3", "opus"]
        variants = ["full", "no_guides"]
        shards = []
        for k in (1, 2, 3):
            path = tmp_path / f"s{k}.json"
            run_ablation(
                fsms, variants, checkpoint=path, shard=f"{k}/3"
            )
            shards.append(path)
        merged, _ = merge_files(shards)
        unsharded = run_ablation(fsms, variants)
        assert merged.render() == unsharded.render()

    def test_sweep(self, tmp_path):
        fsms = ["lion9", "ex3"]
        shards = []
        for k in (1, 2):
            path = tmp_path / f"s{k}.json"
            run_seed_sweep(
                fsms, seeds=(0, 1),
                checkpoint=path, shard=f"{k}/2",
            )
            shards.append(path)
        merged, _ = merge_files(shards)
        unsharded = run_seed_sweep(fsms, seeds=(0, 1))
        assert merged.render() == unsharded.render()


class TestRunLog:
    def test_log_round_trips(self, tmp_path):
        """Header first, then one line per unit in run order; an
        unsharded log records its units too."""
        log = tmp_path / "run.log"
        report = run_table1(
            ["lion9", "ex3"], include_enc=False, checkpoint=log
        )
        header, *cells = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert header["experiment"] == "table1"
        assert header["shard"] is None
        assert header["units"] == ["lion9", "ex3"]
        assert [c["key"] for c in cells] == ["lion9", "ex3"]
        resumed = run_table1(
            ["lion9", "ex3"], include_enc=False, checkpoint=log
        )
        assert resumed.render() == report.render()
        assert len(log.read_text().splitlines()) == 3  # nothing re-ran


class TestStreaming:
    def test_stream_rejects_non_stream_files(self, tmp_path):
        """``merge`` refuses a headerless or empty log rather than
        replaying it as a run with no units."""
        bad = tmp_path / "nope.log"
        bad.write_text('{"key": "x", "payload": {}}\n')
        empty = tmp_path / "empty.log"
        empty.write_text("")
        for path in (bad, empty):
            with pytest.raises(CheckpointError, match="header"):
                merge_files([path])


class TestCliEndToEnd:
    def _table_of(self, text):
        """The deterministic tail of a command's output: everything
        from the table border on (verbose per-row progress lines and
        the merge banner differ by construction)."""
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line and set(line) == {"="}:  # the title underline
                return "\n".join(lines[i - 1:])
        raise AssertionError(f"no table in output:\n{text}")

    def test_shard_merge_matches_unsharded(self, tmp_path, capsys):
        args = ["table1", "--fsm", "lion9", "ex3", "opus", "--no-enc"]
        shard_files = []
        for k in (1, 2):
            ckpt = tmp_path / f"s{k}.json"
            assert main(args + [
                "--shard", f"{k}/2", "--resume", str(ckpt),
            ]) == 0
            shard_files.append(ckpt)
        capsys.readouterr()
        assert main(args) == 0
        unsharded = self._table_of(capsys.readouterr().out)

        assert main(["merge"] + [str(p) for p in shard_files]) == 0
        merged_out = capsys.readouterr().out
        assert "merged 2 shard file(s): table1" in merged_out
        assert self._table_of(merged_out) == unsharded

    def test_merge_json_flag(self, tmp_path, capsys):
        for k in (1, 2):
            assert main([
                "table1", "--fsm", "lion9", "ex3", "--no-enc",
                "--shard", f"{k}/2",
                "--resume", str(tmp_path / f"s{k}.json"),
            ]) == 0
        out = tmp_path / "merged.json"
        assert main([
            "merge", str(tmp_path / "s1.json"),
            str(tmp_path / "s2.json"), "--json", str(out),
        ]) == 0
        data = json.loads(out.read_text())
        assert data["experiment"] == "table1"
        assert [r["fsm"] for r in data["rows"]] == ["lion9", "ex3"]

    def test_bad_shard_spec_is_usage_error(self, capsys):
        assert main([
            "table1", "--fsm", "lion9", "--no-enc", "--shard", "3/2",
        ]) == 2
        assert "shard" in capsys.readouterr().err

    def test_merge_mismatch_is_usage_error(self, tmp_path, capsys):
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=tmp_path / "s1.json", shard="1/2",
        )
        run_table2(
            ["dk16", "s386"],
            checkpoint=tmp_path / "s2.json", shard="2/2",
        )
        assert main([
            "merge", str(tmp_path / "s1.json"),
            str(tmp_path / "s2.json"),
        ]) == 2
        assert "cannot merge" in capsys.readouterr().err

    def test_merge_propagates_failure_exit_code(self, tmp_path):
        with faults.inject(
            "table1.row", SolverTimeout, key="ex3", times=2
        ):
            for k in (1, 2):
                run_table1(
                    ["lion9", "ex3"], include_enc=False,
                    checkpoint=tmp_path / f"s{k}.json",
                    shard=f"{k}/2",
                )
        assert main([
            "merge", str(tmp_path / "s1.json"),
            str(tmp_path / "s2.json"),
        ]) == 1  # failed rows surface, same as the experiment commands
