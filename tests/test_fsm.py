"""Tests for the FSM substrate: model, KISS2 I/O, library, generator."""

import pytest

from repro.cubes import contains
from repro.fsm import (
    BENCHMARKS,
    TABLE1_FSMS,
    TABLE2_FSMS,
    Fsm,
    Transition,
    benchmark_names,
    encode_fsm,
    format_kiss,
    fsm_to_symbolic_cover,
    load_benchmark,
    parse_kiss,
    synthesize_fsm,
    unused_code_cubes,
)
from repro.runtime import InvalidSpecError

SIMPLE_KISS = """
.i 2
.o 1
.s 2
.p 3
.r a
00 a a 0
01 a b 0
-- b a 1
"""


class TestTransition:
    def test_rejects_bad_chars(self):
        with pytest.raises(ValueError):
            Transition("0x", "a", "b", "1")
        with pytest.raises(ValueError):
            Transition("01", "a", "b", "z")


class TestFsmModel:
    def make(self):
        fsm = Fsm("toy")
        fsm.add("00", "a", "a", "0")
        fsm.add("01", "a", "b", "0")
        fsm.add("--", "b", "a", "1")
        fsm.reset_state = "a"
        return fsm

    def test_states_order_reset_first(self):
        fsm = self.make()
        assert fsm.states == ["a", "b"]
        fsm.reset_state = "b"
        assert fsm.states == ["b", "a"]

    def test_counts(self):
        fsm = self.make()
        assert fsm.n_inputs == 2
        assert fsm.n_outputs == 1
        assert fsm.n_states == 2
        assert fsm.stats()["terms"] == 3

    def test_min_code_length(self):
        fsm = self.make()
        assert fsm.min_code_length() == 1
        for _ in range(3):
            fsm.add("11", "a", f"extra{_}", "0")
        assert fsm.n_states == 5
        assert fsm.min_code_length() == 3

    def test_width_consistency_enforced(self):
        fsm = self.make()
        with pytest.raises(ValueError):
            fsm.add("0", "a", "b", "1")
        with pytest.raises(ValueError):
            fsm.add("00", "a", "b", "11")

    def test_validate_unknown_reset(self):
        fsm = self.make()
        fsm.reset_state = "nope"
        with pytest.raises(ValueError):
            fsm.validate()

    def test_completely_specified(self):
        fsm = self.make()
        assert not fsm.completely_specified()  # state a misses 1-
        fsm.add("1-", "a", "a", "0")
        assert fsm.completely_specified()

    def test_transitions_from_and_next_states(self):
        fsm = self.make()
        assert len(fsm.transitions_from("a")) == 2
        assert fsm.next_states_of("a") == {"a", "b"}


class TestKissIO:
    def test_parse_simple(self):
        fsm = parse_kiss(SIMPLE_KISS, name="simple")
        assert fsm.name == "simple"
        assert fsm.reset_state == "a"
        assert fsm.n_states == 2
        assert len(fsm.transitions) == 3

    def test_parse_checks_counts(self):
        bad = SIMPLE_KISS.replace(".s 2", ".s 5")
        with pytest.raises(ValueError):
            parse_kiss(bad)

    def test_parse_rejects_width_mismatch(self):
        bad = SIMPLE_KISS.replace("01 a b 0", "011 a b 0")
        with pytest.raises(ValueError):
            parse_kiss(bad)

    def test_roundtrip(self):
        fsm = parse_kiss(SIMPLE_KISS)
        again = parse_kiss(format_kiss(fsm))
        assert again.transitions == fsm.transitions
        assert again.reset_state == fsm.reset_state

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_kiss(".i 2\n.o 1\n.e\n")


class TestLibrary:
    def test_registry_contains_table_machines(self):
        for name in TABLE1_FSMS + TABLE2_FSMS:
            assert name in BENCHMARKS

    def test_embedded_files_load(self):
        for name in ["lion", "train4", "shiftreg", "modulo12",
                     "dk27", "seq101", "vending"]:
            fsm = load_benchmark(name)
            spec = BENCHMARKS[name]
            assert fsm.n_inputs == spec.inputs
            assert fsm.n_outputs == spec.outputs
            assert fsm.n_states == spec.states

    def test_synthetic_match_spec(self):
        for name in ["bbara", "lion9", "opus", "keyb"]:
            fsm = load_benchmark(name)
            spec = BENCHMARKS[name]
            assert fsm.n_inputs == spec.inputs
            assert fsm.n_outputs == spec.outputs
            assert fsm.n_states == spec.states
            assert len(fsm.transitions) >= spec.states

    def test_synthetic_deterministic(self):
        a = load_benchmark("bbara")
        b = load_benchmark("bbara")
        assert a.transitions == b.transitions

    def test_unknown_name(self):
        with pytest.raises(InvalidSpecError, match="not-a-machine"):
            load_benchmark("not-a-machine")

    def test_benchmark_names_sorted(self):
        names = benchmark_names()
        assert names == sorted(names)
        assert "scf" in names


class TestSynthesizer:
    def test_connected_and_deterministic_partition(self):
        fsm = synthesize_fsm("gen", 3, 2, 6, 24, seed=7)
        assert fsm.n_states == 6
        # per-state rows partition the input space: disjoint and complete
        for state in fsm.states:
            rows = fsm.transitions_from(state)
            total = sum(1 << t.inputs.count("-") for t in rows)
            assert total == 8, f"state {state} rows don't tile the inputs"
            for i, a in enumerate(rows):
                for b in rows[i + 1 :]:
                    assert any(
                        x != "-" and y != "-" and x != y
                        for x, y in zip(a.inputs, b.inputs)
                    ), "overlapping rows"

    def test_reachability(self):
        fsm = synthesize_fsm("gen2", 2, 2, 12, 40, seed=3)
        reachable = {fsm.states[0]}
        frontier = [fsm.states[0]]
        while frontier:
            cur = frontier.pop()
            for t in fsm.transitions_from(cur):
                if t.next not in reachable:
                    reachable.add(t.next)
                    frontier.append(t.next)
        assert reachable == set(fsm.states)

    def test_seed_changes_machine(self):
        a = synthesize_fsm("gen3", 2, 2, 5, 15, seed=0)
        b = synthesize_fsm("gen3", 2, 2, 5, 15, seed=1)
        assert a.transitions != b.transitions


class TestSymbolicCover:
    def test_shape(self):
        fsm = parse_kiss(SIMPLE_KISS)
        space, cover, states = fsm_to_symbolic_cover(fsm)
        assert states == ["a", "b"]
        # 2 binary inputs + state MV part + output part (2 next + 1 out)
        assert space.part_sizes == (2, 2, 2, 3)
        assert len(cover) == 3

    def test_one_hot_next_state(self):
        fsm = parse_kiss(SIMPLE_KISS)
        space, cover, states = fsm_to_symbolic_cover(fsm)
        # row "01 a b 0": next=b -> one-hot bit 1 of output part
        row = cover[1]
        out_field = space.field(row, 3)
        assert out_field == 0b010


class TestEncodeFsm:
    def make(self):
        return parse_kiss(SIMPLE_KISS)

    def test_encoded_pla_shape(self):
        fsm = self.make()
        pla = encode_fsm(fsm, {"a": 0, "b": 1})
        assert pla.n_inputs == 3  # 2 inputs + 1 state bit
        assert pla.n_outputs == 2  # 1 next-state bit + 1 output

    def test_rejects_non_injective(self):
        fsm = self.make()
        with pytest.raises(ValueError):
            encode_fsm(fsm, {"a": 1, "b": 1})

    def test_rejects_missing_state(self):
        fsm = self.make()
        with pytest.raises(ValueError):
            encode_fsm(fsm, {"a": 0})

    def test_next_state_function_correct(self):
        fsm = self.make()
        pla = encode_fsm(fsm, {"a": 0, "b": 1})
        # present=b (bit 1), any input -> next a (0), out 1
        got = pla.eval_minterm([0, 0, 1])
        assert got == [0, 1]
        # present=a, input 01 -> next b (bit set), out 0
        got = pla.eval_minterm([0, 1, 0])
        assert got == [1, 0]

    def test_unused_codes_are_dc(self):
        fsm = self.make()
        for _ in range(1):
            fsm.add("11", "a", "c", "0")
        pla = encode_fsm(fsm, {"a": 0, "b": 1, "c": 2})
        # 3 states in 2 bits -> one unused code (11): must appear in dc
        assert any(
            pla.space.field(c, 2) == 0b10 and pla.space.field(c, 3) == 0b10
            for c in pla.dcset
        )

    def test_unused_code_cubes_helper(self):
        got = unused_code_cubes(2, [0, 1, 2])
        assert got == [(1, 1)]


class TestDeterminismCheck:
    def test_conflicting_rows_detected(self):
        fsm = Fsm("bad")
        fsm.add("0-", "a", "b", "1")
        fsm.add("-0", "a", "a", "0")  # overlaps on 00 with other row
        assert len(fsm.conflicting_rows()) == 1
        with pytest.raises(ValueError):
            fsm.check_deterministic()

    def test_consistent_overlap_allowed(self):
        fsm = Fsm("dup")
        fsm.add("0-", "a", "b", "1")
        fsm.add("-0", "a", "b", "1")  # overlap but identical behaviour
        assert fsm.conflicting_rows() == []
        fsm.check_deterministic()

    def test_dc_output_overlap_is_compatible(self):
        fsm = Fsm("dc")
        fsm.add("0-", "a", "b", "-")
        fsm.add("-0", "a", "b", "1")
        assert fsm.conflicting_rows() == []

    def test_parse_kiss_enforces_determinism(self):
        bad = ".i 1\n.o 1\n.r a\n- a a 1\n0 a a 0\n"
        with pytest.raises(ValueError):
            parse_kiss(bad)
        fsm = parse_kiss(bad, check_deterministic=False)
        assert len(fsm.transitions) == 2

    def test_embedded_machines_are_deterministic(self):
        for name in ["lion", "train4", "shiftreg", "modulo12",
                     "dk27", "seq101", "vending"]:
            load_benchmark(name).check_deterministic()
