"""Benchmark regenerating the paper's Table II (state assignment).

Each case runs the full state-assignment pipeline — symbolic
minimization, encoding (NOVA i_hybrid / io_hybrid / the PICOLA-based
NEW tool), encoded-PLA construction and espresso — and reports the
two-level sizes plus encode-time ratios, like the paper's Table II.

Run:  pytest benchmarks/test_table2.py --benchmark-only
Full sweep (all 19 rows; with the other benches ~1 min serial):
set REPRO_FULL_TABLES=1.
"""

import os

import pytest

from repro.fsm import TABLE2_FSMS
from repro.harness import QUICK_FSMS2, run_table2

FULL = bool(os.environ.get("REPRO_FULL_TABLES"))
FSMS = TABLE2_FSMS if FULL else QUICK_FSMS2


@pytest.mark.parametrize("fsm", FSMS)
def test_table2_row(benchmark, fsm):
    """One Table II row: sizes and time ratios for the three tools."""

    def run():
        return run_table2([fsm])

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    row = report.rows[0]
    assert all(size > 0 for size in row.sizes.values())
    print(
        f"\n[Table II] {row.fsm}: "
        f"NOVA-ih={row.sizes['nova_ih']} "
        f"NOVA-ioh={row.sizes['nova_ioh']} "
        f"NEW={row.sizes['picola']} "
        f"time-ratio NEW/ih={row.time_ratio('picola'):.2f}"
    )


def test_table2_summary(benchmark):
    """The whole (quick) table with totals."""

    def run():
        return run_table2(QUICK_FSMS2)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + report.render())
    new = report.total_size("picola")
    ih = report.total_size("nova_ih")
    # the paper's qualitative claim: NEW compares favorably
    assert new <= ih * 1.10, (
        f"NEW ({new}) should be competitive with NOVA i_hybrid ({ih})"
    )
