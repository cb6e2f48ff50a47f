"""Benchmark regenerating the paper's Table I.

Each benchmark case reproduces one Table I row: derive the
input-encoding problem from the FSM, run NOVA / ENC / PICOLA at
minimum code length, and score all three with the minimum-cover
evaluator.  The fixture prints the row so a ``--benchmark-only`` run
shows the same numbers the paper's table reports; the module-level
summary test renders the full table with win/loss statistics.

Run:  pytest benchmarks/test_table1.py --benchmark-only
Full sweep (all 33 rows; with the other benches ~1 min serial):
set REPRO_FULL_TABLES=1.
"""

import os

import pytest

from repro.harness import QUICK_FSMS, run_table1
from repro.fsm import TABLE1_FSMS

FULL = bool(os.environ.get("REPRO_FULL_TABLES"))
FSMS = TABLE1_FSMS if FULL else QUICK_FSMS


@pytest.mark.parametrize("fsm", FSMS)
def test_table1_row(benchmark, fsm):
    """One Table I row (NOVA vs ENC vs PICOLA cube counts)."""

    def run():
        return run_table1([fsm], include_enc=not FULL, enc_budget=3000)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    row = report.rows[0]
    assert row.cubes_picola >= row.n_constraints or row.n_constraints == 0
    print(
        f"\n[Table I] {row.fsm}: const={row.n_constraints} "
        f"NOVA={row.cubes_nova} ENC={row.cubes_enc} "
        f"PICOLA={row.cubes_picola} "
        f"(paper PICOLA={row.paper_picola})"
    )


def test_table1_summary(benchmark):
    """The whole (quick) table plus the paper's summary statistics."""

    def run():
        return run_table1(QUICK_FSMS, include_enc=False)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + report.render())
    # the paper's qualitative claim: NOVA is more expensive overall
    assert report.nova_overhead >= -0.10, (
        "PICOLA should be at least competitive with NOVA overall"
    )
