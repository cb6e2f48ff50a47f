"""The shared experiment driver (``repro.harness.experiment``).

Every experiment runs through one loop, so failure handling is the
same for all of them: a unit that fails its fault boundary prints one
``<key>: FAILED (<reason>)`` progress line, folds as a failure
payload, and the rest of the run completes.
"""

import pytest

from repro.harness.ablation import run_ablation
from repro.harness.experiment import payload_failed
from repro.harness.sweep import run_seed_sweep
from repro.harness.table1 import run_table1
from repro.harness.table2 import run_table2
from repro.runtime import SolverTimeout, faults

#: experiment -> (runner, kwargs over lion9 and ex3, fault site, key)
CASES = {
    "table1": (
        run_table1, dict(fsms=["lion9", "ex3"], include_enc=False),
        "table1.row", "lion9",
    ),
    "table2": (run_table2, dict(fsms=["lion9", "ex3"]), "table2.row", "lion9"),
    "ablation": (
        run_ablation, dict(fsms=["lion9", "ex3"], variants=["full"]),
        "ablation.fsm", "lion9",
    ),
    "sweep": (
        run_seed_sweep, dict(fsms=["lion9", "ex3"], seeds=(0,)),
        "sweep.benchmark", "0/lion9",
    ),
}


def test_payload_failed():
    assert payload_failed({"status": "timeout"})
    assert payload_failed({"status": "failed", "reason": "x"})
    assert not payload_failed({"status": "ok", "cubes": 7})
    # ablation payloads carry a per-variant status *dict*
    assert not payload_failed({"status": {"exact": "budget"}})
    assert not payload_failed({"cubes": 7})
    assert not payload_failed(42)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


@pytest.mark.parametrize("name", sorted(CASES))
def test_failed_unit_prints_one_failed_line(name, capsys):
    run, kwargs, site, key = CASES[name]
    with faults.inject(site, SolverTimeout, key=key):
        report = run(**kwargs, verbose=True)
    assert report.n_failed == 1
    failed = [
        line for line in capsys.readouterr().out.splitlines()
        if "FAILED" in line
    ]
    assert failed == [f"{key}: FAILED (timeout)"]  # ex3 still ran
