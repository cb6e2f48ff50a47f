"""The determinism/regression gate against the golden records.

A fresh process must reproduce the stored quick-Table-I record
exactly: the encoders, the espresso evaluator and the benchmark
generator are all seeded, so any drift means nondeterminism crept in
(or an algorithm change that should be reviewed and re-goldened with
``repro.harness.regression.write_golden``).
"""

import pathlib

import pytest

from repro.harness import QUICK_FSMS, run_table1
from repro.harness.regression import (
    GOLDEN_DIR,
    Drift,
    compare_to_golden,
    write_golden,
)

GOLDEN = GOLDEN_DIR / "table1_quick.json"
# table1_quick.json is recorded with --no-enc; this one pins the ENC
# column (cubes, minimizations, fails) of the same quick run
GOLDEN_ENC = GOLDEN_DIR / "table1_quick_enc.json"

# keep the gate fast: a 4-FSM slice of the golden record's machines
SLICE = ["bbara", "lion9", "opus", "dk16"]


class TestGoldenRecord:
    def test_golden_file_exists(self):
        assert GOLDEN.exists(), (
            "golden record missing; regenerate with write_golden()"
        )

    def test_slice_reproduces_golden(self):
        import json

        golden = json.loads(GOLDEN.read_text())
        by_name = {row["fsm"]: row for row in golden["rows"]}
        report = run_table1(SLICE, include_enc=False)
        for row in report.rows:
            want = by_name[row.fsm]
            assert row.n_constraints == want["constraints"], row.fsm
            assert row.cubes_picola == want["cubes"]["picola"], row.fsm
            assert row.cubes_nova == want["cubes"]["nova"], row.fsm

    def test_quick_run_with_enc_reproduces_golden(self):
        drifts = compare_to_golden(run_table1(QUICK_FSMS), GOLDEN_ENC)
        assert not drifts, "\n".join(map(str, drifts))


class TestComparator:
    def test_roundtrip_zero_drift(self, tmp_path):
        report = run_table1(["opus"], include_enc=False)
        path = tmp_path / "g.json"
        write_golden(report, path)
        assert compare_to_golden(report, path) == []

    def test_drift_detected(self, tmp_path):
        report = run_table1(["opus"], include_enc=False)
        path = tmp_path / "g.json"
        write_golden(report, path)
        # tamper with the golden record
        import json

        data = json.loads(path.read_text())
        data["rows"][0]["cubes"]["picola"] += 5
        path.write_text(json.dumps(data))
        drifts = compare_to_golden(report, path)
        assert any("picola" in d.key for d in drifts)

    def test_tolerance_suppresses_small_drift(self, tmp_path):
        report = run_table1(["opus"], include_enc=False)
        path = tmp_path / "g.json"
        write_golden(report, path)
        import json

        data = json.loads(path.read_text())
        data["rows"][0]["cubes"]["nova"] += 1  # small absolute change
        path.write_text(json.dumps(data))
        strict = compare_to_golden(report, path)
        loose = compare_to_golden(report, path, tolerance=0.9)
        assert strict and not loose

    def test_missing_golden_raises(self, tmp_path):
        report = run_table1(["opus"], include_enc=False)
        with pytest.raises(FileNotFoundError):
            compare_to_golden(report, tmp_path / "nope.json")

    def test_drift_str_and_relative(self):
        d = Drift("x", 10, 12)
        assert d.relative == pytest.approx(0.2)
        assert "golden=10" in str(d)
        assert Drift("y", 0, 0).relative == 0.0
