"""Extension bench: the full state-assignment tool zoo.

Beyond the paper's Table II (NOVA i/io-hybrid vs the NEW tool), this
bench adds pure greedy NOVA and the trivial natural/gray strawmen
under the identical two-level cost model.  The expected picture:
face-constraint-driven tools (PICOLA, NOVA) lead; the strawmen trail.

Run:  pytest benchmarks/test_extensions.py --benchmark-only
"""

import pytest

from repro.encoding import derive_face_constraints
from repro.fsm import load_benchmark
from repro.stateassign import assign_states

EXT_FSMS = ["dk16", "donfile", "ex2", "keyb", "tma", "s386"]
EXT_METHODS = ["picola", "nova_ih", "nova_greedy", "natural", "gray"]


@pytest.mark.parametrize("method", EXT_METHODS)
def test_method_total_size(benchmark, method):
    def run():
        total = 0
        for name in EXT_FSMS:
            fsm = load_benchmark(name)
            cset = derive_face_constraints(fsm)
            total += assign_states(
                fsm, method, constraints=cset, seed=1
            ).size
        return total

    total = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n[Extensions] {method}: total size = {total}")
    assert total > 0


def test_tool_ranking(benchmark):
    """PICOLA should beat the natural strawman in total size."""

    def run():
        totals = {}
        for method in ["picola", "natural"]:
            totals[method] = 0
            for name in EXT_FSMS:
                fsm = load_benchmark(name)
                cset = derive_face_constraints(fsm)
                totals[method] += assign_states(
                    fsm, method, constraints=cset, seed=1
                ).size
        return totals

    totals = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n[Extensions] totals: {totals}")
    assert totals["picola"] <= totals["natural"]
