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
from repro.harness.serialize import to_dict
from repro.harness.shard import read_stream
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


def cells(stream):
    """The ``(key, payload)`` cells of a stream file, in order."""
    events = [json.loads(line) for line in stream.read_text().splitlines()]
    return [
        (e["key"], scrub(e["payload"]))
        for e in events if e["type"] == "cell"
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_resume_is_equivalent_to_uninterrupted_run(name, tmp_path):
    run, kwargs = CASES[name]
    full_ckpt, full_stream = tmp_path / "full.ckpt", tmp_path / "full.jsonl"
    full = run(**kwargs, checkpoint=full_ckpt, stream=full_stream)

    # keep the first half of the units (in run order) in the checkpoint
    _, completed = read_stream(full_stream)
    keys = list(completed)
    assert len(keys) >= 2
    data = json.loads(full_ckpt.read_text())
    for key in keys[len(keys) // 2:]:
        del data["completed"][key]
    half_ckpt = tmp_path / "half.ckpt"
    half_ckpt.write_text(json.dumps(data))
    half_stream = tmp_path / "half.jsonl"
    resumed = run(**kwargs, checkpoint=half_ckpt, stream=half_stream)

    def text(report):  # Table II renders wall-clock time ratios
        out = report.render()
        return re.sub(r"\d+\.\d+", "#", out) if name == "table2" else out

    assert text(resumed) == text(full)
    assert scrub(to_dict(resumed)) == scrub(to_dict(full))
    assert cells(half_stream) == cells(full_stream)
    flags = [
        json.loads(line)["resumed"]
        for line in half_stream.read_text().splitlines()[1:-1]
    ]
    half = len(keys) // 2
    assert flags == [True] * half + [False] * (len(keys) - half)


class TestExperimentLookup:
    @pytest.mark.parametrize(
        "tag", ["table1", "table2", "ablation", "sweep", "fuzz"]
    )
    def test_tags_resolve_to_their_report_class(self, tag):
        assert get_experiment(tag).tag == tag

    def test_lookup_returns_the_class_itself(self):
        assert get_experiment("table1") is Table1Report

    def test_unknown_tag_is_a_checkpoint_error(self):
        with pytest.raises(CheckpointError, match="cannot rebuild"):
            get_experiment("nope")
