"""Edge-case tests across modules: the inputs users actually mistype."""

import pytest

from repro.cubes import Space, consensus, sharp
from repro.encoding import (
    ConstraintSet,
    Encoding,
    FaceConstraint,
    length_tradeoff,
    minimum_satisfying_length,
)
from repro.espresso import Pla, espresso
from repro.fsm import Fsm, format_kiss, parse_kiss


class TestSpaceEdges:
    def test_single_part_space(self):
        space = Space([2])
        assert space.universe == 0b11
        assert list(space.iter_minterms()) == [0b01, 0b10]

    def test_field_access_roundtrip(self):
        space = Space([2, 5, 3])
        cube = space.make_cube([0b10, 0b10101, 0b011])
        assert space.fields(cube) == [0b10, 0b10101, 0b011]

    def test_with_field_too_wide(self):
        space = Space([2, 2])
        with pytest.raises(ValueError):
            space.with_field(space.universe, 0, 0b100)

    def test_literal_out_of_range(self):
        space = Space([2])
        with pytest.raises(ValueError):
            space.literal(0, 2)

    def test_minterm_wrong_arity(self):
        space = Space([2, 2])
        with pytest.raises(ValueError):
            space.minterm([0])


class TestMVCubeEdges:
    def test_consensus_mv_conflict(self):
        space = Space([3, 2])
        a = space.make_cube([0b001, 0b11])
        b = space.make_cube([0b110, 0b01])
        got = consensus(space, a, b)
        # conflict only in part 0 -> raised there, intersect part 1
        assert space.fields(got) == [0b111, 0b01]

    def test_sharp_identity_when_disjoint(self):
        space = Space([3])
        a = space.make_cube([0b001])
        b = space.make_cube([0b110])
        assert sharp(space, a, b) == [a]

    def test_sharp_of_self_empty(self):
        space = Space([3, 2])
        a = space.make_cube([0b011, 0b01])
        assert sharp(space, a, a) == []


class TestEspressoEdges:
    def test_single_minterm(self):
        space = Space.binary(4)
        m = space.parse_cube("0101")
        assert espresso(space, [m]) == [m]

    def test_full_tautology_collapses(self):
        space = Space.binary(3)
        onset = list(space.iter_minterms())
        assert espresso(space, onset) == [space.universe]

    def test_duplicate_cubes_deduplicated(self):
        space = Space.binary(2)
        c = space.parse_cube("01")
        assert len(espresso(space, [c, c, c])) == 1

    def test_onset_covered_by_dc_vanishes(self):
        space = Space.binary(2)
        onset = [space.parse_cube("00")]
        dcset = [space.parse_cube("--")]
        # the function may legally become empty (all dc)
        got = espresso(space, onset, dcset)
        assert len(got) <= 1

    def test_pla_zero_inputs(self):
        pla = Pla(0, 2)
        assert pla.space.part_sizes == (2,)


class TestEncodingEdges:
    def test_zero_symbol_constraintset(self):
        cs = ConstraintSet([])
        assert cs.min_code_length() == 1
        assert cs.nontrivial() == []

    def test_encoding_with_spare_bits(self):
        enc = Encoding(["a", "b"], {"a": 0, "b": 5}, 3)
        assert enc.n_bits == 3
        assert len(enc.unused_codes()) == 6

    def test_length_functions_on_trivial_sets(self):
        cs = ConstraintSet(["a", "b"], [])
        assert minimum_satisfying_length(cs) == 1
        points = length_tradeoff(cs, max_extra_bits=0)
        assert points[0].cubes == 0


class TestFsmEdges:
    def test_single_state_machine(self):
        fsm = Fsm("one")
        fsm.add("-", "only", "only", "1")
        assert fsm.min_code_length() == 1

    def test_format_kiss_without_reset(self):
        fsm = Fsm("noreset")
        fsm.add("0", "a", "a", "1")
        fsm.add("1", "a", "a", "0")
        text = format_kiss(fsm)
        assert ".r" not in text
        again = parse_kiss(text)
        assert again.reset_state is None

    def test_star_next_state(self):
        kiss = ".i 1\n.o 1\n.r a\n0 a b 1\n1 a * 0\n0 b a 0\n1 b b 1\n"
        fsm = parse_kiss(kiss)
        assert fsm.n_states == 2  # '*' is not a state

    def test_kiss_comment_only_lines(self):
        kiss = "# header\n.i 1\n.o 1\n# mid\n0 a a 1\n1 a a 0\n"
        fsm = parse_kiss(kiss)
        assert len(fsm.transitions) == 2
