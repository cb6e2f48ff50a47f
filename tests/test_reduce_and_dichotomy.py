"""Tests for state minimization."""

import pytest

from repro.fsm import (
    equivalent_state_classes,
    load_benchmark,
    parse_kiss,
    reduce_states,
)

# b and c are equivalent (identical rows up to renaming); d is not
REDUNDANT = """
.i 1
.o 1
.r a
0 a b 0
1 a c 0
0 b a 1
1 b d 0
0 c a 1
1 c d 0
0 d d 1
1 d a 1
"""


class TestStateReduction:
    def test_detects_equivalent_pair(self):
        fsm = parse_kiss(REDUNDANT)
        classes = equivalent_state_classes(fsm)
        merged = [c for c in classes if len(c) > 1]
        assert merged == [["b", "c"]]

    def test_reduce_produces_smaller_machine(self):
        fsm = parse_kiss(REDUNDANT)
        result = reduce_states(fsm)
        assert result.removed == 1
        assert result.fsm.n_states == 3
        assert result.representative["c"] == "b"
        assert result.fsm.reset_state == "a"

    def test_reduced_machine_behaves_identically(self):
        from repro.fsm import SymbolicSimulator

        fsm = parse_kiss(REDUNDANT)
        result = reduce_states(fsm)
        sim_a = SymbolicSimulator(fsm)
        sim_b = SymbolicSimulator(result.fsm)
        import random

        rng = random.Random(4)
        for _ in range(200):
            x = rng.choice("01")
            na, oa = sim_a.step(x)
            nb, ob = sim_b.step(x)
            assert oa == ob
            assert result.representative[na] == nb

    def test_already_minimal_machine_unchanged(self):
        fsm = load_benchmark("shiftreg")
        result = reduce_states(fsm)
        assert result.removed == 0
        assert result.fsm.n_states == fsm.n_states

    def test_modulo12_is_minimal(self):
        fsm = load_benchmark("modulo12")
        assert reduce_states(fsm).removed == 0

    def test_incompletely_specified_rejected(self):
        fsm = parse_kiss(".i 1\n.o 1\n.r a\n0 a a 1\n1 a b 1\n- b a 0\n")
        # state a has both rows but b's rows cover everything; make a
        # machine that's genuinely incomplete:
        fsm2 = parse_kiss(".i 1\n.o 1\n.r a\n0 a a 1\n0 b a 0\n1 b b 1\n")
        with pytest.raises(ValueError):
            reduce_states(fsm2)

    def test_dc_outputs_rejected(self):
        fsm = parse_kiss(
            ".i 1\n.o 1\n.r a\n0 a a -\n1 a b 1\n0 b a 1\n1 b b 0\n"
        )
        with pytest.raises(ValueError):
            reduce_states(fsm)
