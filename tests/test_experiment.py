"""The shared experiment driver (``repro.harness.experiment``).

Every experiment runs through one loop, so resume semantics must be
the same for all of them: a run killed halfway and resumed from its
checkpoint reports exactly what an uninterrupted run reports.
"""

import json
import re

import pytest

from repro.harness.ablation import run_ablation
from repro.harness.experiment import get_experiment
from repro.harness.sweep import run_seed_sweep
from repro.harness.table1 import Table1Report, run_table1
from repro.harness.table2 import run_table2
from repro.runtime import CheckpointError

CASES = {
    "table1": (run_table1, dict(fsms=["lion9", "ex3"], include_enc=False)),
    "table2": (run_table2, dict(fsms=["s386", "lion9"])),
    "ablation": (
        run_ablation,
        dict(fsms=["lion9", "ex3"], variants=["full", "no_guides"]),
    ),
    "sweep": (run_seed_sweep, dict(fsms=["lion9", "ex3"], seeds=(0, 1))),
}


def scrub(obj):
    """Drop wall-clock fields; they differ between live runs."""
    if isinstance(obj, dict):
        return {
            k: scrub(v) for k, v in obj.items()
            if not k.startswith("seconds") and k != "time_ratios"
        }
    if isinstance(obj, list):
        return [scrub(v) for v in obj]
    return obj


def cells(log):
    """The ``(key, payload)`` cells of a run log, in order."""
    entries = [json.loads(line) for line in log.read_text().splitlines()[1:]]
    return [(e["key"], scrub(e["payload"])) for e in entries]


@pytest.mark.parametrize("name", sorted(CASES))
def test_resume_is_equivalent_to_uninterrupted_run(name, tmp_path):
    run, kwargs = CASES[name]
    full_log = tmp_path / "full.log"
    full = run(**kwargs, checkpoint=full_log)

    # keep the header and the first half of the cells (in run order)
    header, *lines = full_log.read_text().splitlines(keepends=True)
    assert len(lines) >= 2
    half_log = tmp_path / "half.log"
    half_log.write_text(header + "".join(lines[: len(lines) // 2]))
    resumed = run(**kwargs, checkpoint=half_log)

    def text(report):  # Table II renders wall-clock time ratios
        out = report.render()
        return re.sub(r"\d+\.\d+", "#", out) if name == "table2" else out

    assert text(resumed) == text(full)
    assert scrub(resumed.to_dict()) == scrub(full.to_dict())
    assert cells(half_log) == cells(full_log)


class TestExperimentLookup:
    @pytest.mark.parametrize(
        "tag", ["table1", "table2", "ablation", "sweep"]
    )
    def test_tags_resolve_to_their_report_class(self, tag):
        assert get_experiment(tag).tag == tag

    def test_lookup_returns_the_class_itself(self):
        assert get_experiment("table1") is Table1Report

    def test_unknown_tag_is_a_checkpoint_error(self):
        for tag in ("nope", "fuzz"):  # fuzz: the retired campaign
            with pytest.raises(CheckpointError, match="cannot rebuild"):
                get_experiment(tag)
