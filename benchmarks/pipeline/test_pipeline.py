"""Smoke test of the pipeline benchmark on one or two small FSMs each.

Checks that every metric ``BENCHMARK.json`` names is printed with its
unit, that the output checks pass, and that the program's counters
repeat exactly across two invocations.  It takes about 20 s and lives
outside ``tests/``, so the tier-1 suite does not collect it::

    python3 -m pytest benchmarks/pipeline/test_pipeline.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: small FSMs per workload; lion9 and ex3 are golden quick rows
SMALL = {
    "table1_encode": ["lion9", "ex3"],
    "enc_inloop": ["s8", "s27"],
    "table2_assign": ["s386"],
}


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", str(trace), "--fsm", *SMALL[workload],
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert "manifest" in json.loads(lines[-2])
    return json.loads(lines[-1])


def units(metrics: list) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(SMALL)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_end_to_end_metrics(workload):
    result = run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_per_layer_metrics_repeat(workload):
    first, second = run(workload, trace=1), run(workload, trace=1)
    spec = units(SPEC["per_layer"])
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == spec
    exact = [name for name, unit in spec.items()
             if unit in ("count", "cubes")]
    assert exact
    for name in exact:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name
