"""Tests for tautology, complement and Cover semantics.

Everything here is cross-checked against brute-force minterm enumeration
on small spaces, plus hypothesis property tests over random covers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cubes import (
    Cover,
    Space,
    absorb,
    complement,
    contains,
    cover_contains_cube,
    intersect,
    sharp,
    tautology,
)
from repro.cubes import cover as _cover_module
from repro.runtime import InvalidSpecError


def brute_minterms(space, cubes):
    return {
        m
        for m in space.iter_minterms()
        if any(contains(c, m) for c in cubes)
    }


def random_cube(space, draw_bits):
    """Build a non-void cube from a list of per-position booleans."""
    cube = 0
    pos = 0
    for part, size in enumerate(space.part_sizes):
        field = 0
        for value in range(size):
            if draw_bits[pos]:
                field |= 1 << value
            pos += 1
        if not field:
            field = 1  # avoid void parts
        cube |= field << space.offsets[part]
    return cube


@st.composite
def spaces_and_covers(draw):
    sizes = draw(
        st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=4)
    )
    space = Space(sizes)
    n_cubes = draw(st.integers(min_value=0, max_value=6))
    cover = []
    for _ in range(n_cubes):
        bits = draw(
            st.lists(
                st.booleans(), min_size=space.width, max_size=space.width
            )
        )
        cover.append(random_cube(space, bits))
    return space, cover


class TestTautology:
    def test_empty_cover_not_tautology(self):
        space = Space.binary(2)
        assert not tautology(space, [])

    def test_universe_is_tautology(self):
        space = Space.binary(3)
        assert tautology(space, [space.universe])

    def test_split_pair_is_tautology(self):
        space = Space.binary(3)
        cover = [space.parse_cube("0--"), space.parse_cube("1--")]
        assert tautology(space, cover)

    def test_missing_vertex(self):
        space = Space.binary(2)
        cover = [
            space.parse_cube("0-"),
            space.parse_cube("-0"),
            space.parse_cube("10"),
        ]
        assert not tautology(space, cover)  # 11 uncovered

    def test_xor_style_cover(self):
        space = Space.binary(2)
        cover = [space.parse_cube("01"), space.parse_cube("10")]
        assert not tautology(space, cover)
        cover += [space.parse_cube("00"), space.parse_cube("11")]
        assert tautology(space, cover)

    def test_mv_tautology(self):
        space = Space([3])
        cover = [space.make_cube([0b011]), space.make_cube([0b100])]
        assert tautology(space, cover)
        assert not tautology(space, [space.make_cube([0b011])])

    @settings(max_examples=200, deadline=None)
    @given(spaces_and_covers())
    def test_matches_bruteforce(self, sc):
        space, cover = sc
        expect = brute_minterms(space, cover) == set(space.iter_minterms())
        assert tautology(space, cover) == expect


class TestCoverContainsCube:
    def test_simple_containment(self):
        space = Space.binary(3)
        cover = [space.parse_cube("0--"), space.parse_cube("1-1")]
        assert cover_contains_cube(space, cover, space.parse_cube("011"))
        assert cover_contains_cube(space, cover, space.parse_cube("--1"))
        assert not cover_contains_cube(space, cover, space.parse_cube("1--"))

    def test_void_cube_is_contained(self):
        """A cube with an empty part has no minterm, so every cover
        contains it, however many bits it sets elsewhere."""
        space = Space([2, 2])
        assert cover_contains_cube(space, [space.universe], 0b0010)
        assert cover_contains_cube(space, [], 0b0010)
        assert cover_contains_cube(space, [0b0101], 0b1100)
        assert cover_contains_cube(space, [], 0)

    @settings(max_examples=150, deadline=None)
    @given(spaces_and_covers(), st.data())
    def test_matches_bruteforce(self, sc, data):
        space, cover = sc
        bits = data.draw(
            st.lists(st.booleans(), min_size=space.width, max_size=space.width)
        )
        cube = random_cube(space, bits)
        covered = brute_minterms(space, cover)
        inside = {m for m in space.iter_minterms() if contains(cube, m)}
        assert cover_contains_cube(space, cover, cube) == (inside <= covered)


class TestComplement:
    def test_complement_of_empty(self):
        space = Space.binary(2)
        assert complement(space, []) == [space.universe]

    def test_complement_of_universe(self):
        space = Space.binary(2)
        assert complement(space, [space.universe]) == []

    def test_double_complement_same_set(self):
        space = Space.binary(3)
        cover = [space.parse_cube("01-"), space.parse_cube("--1")]
        comp2 = complement(space, complement(space, cover))
        assert brute_minterms(space, comp2) == brute_minterms(space, cover)

    @settings(max_examples=150, deadline=None)
    @given(spaces_and_covers())
    def test_partition_property(self, sc):
        """complement covers exactly the uncovered minterms."""
        space, cover = sc
        comp = complement(space, cover)
        covered = brute_minterms(space, cover)
        comp_covered = brute_minterms(space, comp)
        universe = set(space.iter_minterms())
        assert comp_covered == universe - covered


class TestAbsorb:
    def test_absorb_removes_contained(self):
        space = Space.binary(3)
        cover = [
            space.parse_cube("0--"),
            space.parse_cube("01-"),
            space.parse_cube("011"),
            space.parse_cube("1--"),
        ]
        kept = absorb(cover)
        assert sorted(kept) == sorted(
            [space.parse_cube("0--"), space.parse_cube("1--")]
        )

    @settings(max_examples=100, deadline=None)
    @given(spaces_and_covers())
    def test_absorb_preserves_semantics(self, sc):
        space, cover = sc
        kept = absorb(list(cover))
        assert brute_minterms(space, kept) == brute_minterms(space, cover)
        # no cube in the result is contained in another
        for i, a in enumerate(kept):
            for j, b in enumerate(kept):
                if i != j:
                    assert not (a & ~b == 0 and a != b) or not contains(b, a)


class TestCoverClass:
    def test_from_strings_and_len(self):
        space = Space.binary(3)
        cover = Cover.from_strings(space, ["01-", "1--"])
        assert len(cover) == 2

    def test_equivalence(self):
        space = Space.binary(2)
        a = Cover.from_strings(space, ["0-", "1-"])
        b = Cover.universe(space)
        assert a.equivalent(b)
        assert not a.equivalent(Cover.from_strings(space, ["0-"]))

    def test_intersection(self):
        space = Space.binary(3)
        a = Cover.from_strings(space, ["0--"])
        b = Cover.from_strings(space, ["-1-", "--1"])
        inter = a.intersected(b)
        want = brute_minterms(space, a.cubes) & brute_minterms(space, b.cubes)
        assert brute_minterms(space, inter.cubes) == want

    def test_minterm_count(self):
        space = Space.binary(3)
        cover = Cover.from_strings(space, ["0--", "-0-"])
        # |0--| + |-0-| - |00-| = 4 + 4 - 2
        assert cover.minterm_count() == 6

    def test_minterm_count_disjoint(self):
        space = Space.binary(3)
        cover = Cover.from_strings(space, ["000", "111"])
        assert cover.minterm_count() == 2

    def test_covers_minterm(self):
        space = Space.binary(2)
        cover = Cover.from_strings(space, ["01"])
        assert cover.covers_minterm(space.minterm([0, 1]))
        assert not cover.covers_minterm(space.minterm([1, 1]))

    def test_complemented_roundtrip(self):
        space = Space.binary(4)
        cover = Cover.from_strings(space, ["01--", "--10", "1--1"])
        assert cover.complemented().complemented().equivalent(cover)

    def test_universe_and_empty(self):
        space = Space.binary(2)
        assert Cover.universe(space).is_tautology()
        assert not Cover.empty(space).is_tautology()
        assert Cover.empty(space).complemented().is_tautology()

    def test_caches_survive_in_place_mutation(self):
        # same-length edits through the public list must invalidate the
        # __eq__/__contains__ caches, not just append/add
        space = Space.binary(2)
        a = Cover.from_strings(space, ["01", "10"])
        b = Cover.from_strings(space, ["01", "11"])
        assert a != b
        assert space.parse_cube("10") in a
        a.cubes[1] = space.parse_cube("11")  # same length: slot overwrite
        assert a == b
        assert space.parse_cube("10") not in a
        assert space.parse_cube("11") in a
        a.cubes.pop()
        a.cubes.append(space.parse_cube("10"))  # pop+append: length unchanged
        assert a != b
        assert space.parse_cube("10") in a
        c = Cover.from_strings(space, ["10", "01"])
        assert a == c  # order-insensitive after the mutations
        a.cubes.sort()
        assert a == c
        a.cubes.clear()
        assert a == Cover.empty(space)
        assert space.parse_cube("10") not in a

    # one content-changing call per mutation path; sort and reverse
    # keep the cube multiset, so for them the caches must stay valid
    _MUTATIONS = {
        "append": lambda cover, lst, c: lst.append(c),
        "extend": lambda cover, lst, c: lst.extend([c]),
        "insert": lambda cover, lst, c: lst.insert(0, c),
        "remove": lambda cover, lst, c: lst.remove(lst[-1]),
        "pop": lambda cover, lst, c: lst.pop(),
        "clear": lambda cover, lst, c: lst.clear(),
        "sort": lambda cover, lst, c: lst.sort(),
        "reverse": lambda cover, lst, c: lst.reverse(),
        "__setitem__": lambda cover, lst, c: lst.__setitem__(1, c),
        "__delitem__": lambda cover, lst, c: lst.__delitem__(1),
        "__iadd__": lambda cover, lst, c: lst.__iadd__([c]),
        "__imul__": lambda cover, lst, c: lst.__imul__(0),
        "cubes_setter": lambda cover, lst, c: setattr(cover, "cubes", [c]),
        "add": lambda cover, lst, c: cover.add(c),
    }

    @pytest.mark.parametrize(
        "how", list(_cover_module._MUTATORS) + ["cubes_setter", "add"]
    )
    def test_every_mutation_path_invalidates_caches(self, how):
        space = Space.binary(2)
        cover = Cover.from_strings(space, ["01", "10"])
        everything = [space.parse_cube(r) for r in ("00", "01", "10", "11")]
        # prime both caches
        assert cover == Cover.from_strings(space, ["10", "01"])
        assert [c in cover for c in everything] == [False, True, True, False]
        self._MUTATIONS[how](cover, cover.cubes, space.parse_cube("11"))
        now = list(cover.cubes)
        assert cover == Cover(space, now)
        assert [c in cover for c in everything] == [c in now for c in everything]


class TestCoverOperators:
    def brute(self, cover):
        return brute_minterms(cover.space, cover.cubes)

    def test_union(self):
        space = Space.binary(3)
        a = Cover.from_strings(space, ["00-"])
        b = Cover.from_strings(space, ["11-"])
        assert self.brute(a | b) == self.brute(a) | self.brute(b)

    def test_intersection_operator(self):
        space = Space.binary(3)
        a = Cover.from_strings(space, ["0--"])
        b = Cover.from_strings(space, ["-0-"])
        assert self.brute(a & b) == self.brute(a) & self.brute(b)

    def test_difference(self):
        space = Space.binary(3)
        a = Cover.from_strings(space, ["0--"])
        b = Cover.from_strings(space, ["00-"])
        assert self.brute(a - b) == self.brute(a) - self.brute(b)

    def test_invert(self):
        space = Space.binary(2)
        a = Cover.from_strings(space, ["01"])
        assert self.brute(~a) == set(space.iter_minterms()) - self.brute(a)

    def test_space_mismatch_rejected(self):
        a = Cover.universe(Space.binary(2))
        b = Cover.universe(Space.binary(3))
        import pytest as _pytest

        with _pytest.raises(ValueError):
            a | b

    def test_space_mismatch_rejected_everywhere(self):
        """Every binary Cover operation guards against cross-space
        operands — a cube's bit layout is meaningless in another
        space, so silent acceptance would corrupt results."""
        a = Cover.universe(Space.binary(2))
        b = Cover.universe(Space.binary(3))
        with pytest.raises(InvalidSpecError):
            a.intersected(b)
        with pytest.raises(InvalidSpecError):
            a & b
        with pytest.raises(InvalidSpecError):
            a.union(b)
        with pytest.raises(InvalidSpecError):
            a.difference(b)
        with pytest.raises(InvalidSpecError):
            a.contains_cover(b)
        with pytest.raises(InvalidSpecError):
            a.equivalent(b)

class TestSharpProperties:
    """The disjoint-sharp decomposition is what minterm_count and the
    complement algorithms lean on: cubes must be pairwise disjoint and
    cover exactly ``a``'s minterms outside ``b``."""

    @settings(max_examples=150, deadline=None)
    @given(spaces_and_covers(), st.data())
    def test_sharp_is_disjoint_and_exact(self, sc, data):
        space, _ = sc
        bits_a = data.draw(st.lists(
            st.booleans(), min_size=space.width, max_size=space.width
        ))
        bits_b = data.draw(st.lists(
            st.booleans(), min_size=space.width, max_size=space.width
        ))
        a = random_cube(space, bits_a)
        b = random_cube(space, bits_b)
        pieces = sharp(space, a, b)
        # pairwise disjoint
        for i, x in enumerate(pieces):
            for y in pieces[i + 1:]:
                assert intersect(space, x, y) == 0
        # together they cover exactly a - b
        want = {
            m for m in space.iter_minterms()
            if contains(a, m) and not contains(b, m)
        }
        assert brute_minterms(space, pieces) == want


class TestMintermCountProperty:
    @settings(max_examples=150, deadline=None)
    @given(spaces_and_covers())
    def test_matches_bruteforce(self, sc):
        space, cubes = sc
        cover = Cover(space, cubes)
        assert cover.minterm_count() == len(brute_minterms(space, cubes))


class TestCoverOperatorProperties:
    def brute(self, cover):
        return brute_minterms(cover.space, cover.cubes)

    @settings(max_examples=60, deadline=None)
    @given(spaces_and_covers(), st.data())
    def test_demorgan(self, sc, data):
        space, cubes_a = sc
        n = data.draw(st.integers(min_value=0, max_value=4))
        cubes_b = []
        for _ in range(n):
            bits = data.draw(st.lists(
                st.booleans(), min_size=space.width, max_size=space.width
            ))
            cubes_b.append(random_cube(space, bits))
        a = Cover(space, cubes_a)
        b = Cover(space, cubes_b)
        lhs = ~(a | b)
        rhs = (~a) & (~b)
        assert self.brute(lhs) == self.brute(rhs)
