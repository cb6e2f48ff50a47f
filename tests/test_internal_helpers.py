"""Unit tests for internal helpers that the big flows lean on."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cubes import Cover, Space, contains
from repro.espresso.exact import _min_cover


class TestMinCover:
    def test_essential_column(self):
        rows = [frozenset({0}), frozenset({0, 1})]
        assert _min_cover(rows, 2) == {0}

    def test_needs_two(self):
        rows = [frozenset({0}), frozenset({1})]
        assert _min_cover(rows, 2) == {0, 1}

    def test_picks_minimum_not_greedy_trap(self):
        # greedy would pick column 2 (covers 2 rows) then need 2 more;
        # optimum is columns {0, 1}
        rows = [
            frozenset({0, 2}),
            frozenset({1, 2}),
            frozenset({0}),
            frozenset({1}),
        ]
        assert _min_cover(rows, 3) == {0, 1}

    def test_row_dominance(self):
        rows = [frozenset({0}), frozenset({0, 1, 2})]
        assert _min_cover(rows, 3) == {0}

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_result_always_covers(self, data):
        n_cols = data.draw(st.integers(min_value=1, max_value=6))
        n_rows = data.draw(st.integers(min_value=1, max_value=8))
        rows = []
        for _ in range(n_rows):
            cols = data.draw(
                st.sets(
                    st.integers(min_value=0, max_value=n_cols - 1),
                    min_size=1,
                )
            )
            rows.append(frozenset(cols))
        picked = _min_cover(rows, n_cols)
        assert all(row & picked for row in rows)
        # minimality against brute force
        import itertools

        for k in range(len(picked)):
            for combo in itertools.combinations(range(n_cols), k):
                assert not all(row & set(combo) for row in rows)


class TestReportFmt:
    def test_fmt_variants(self):
        from repro.harness.report import fmt

        assert fmt(None) == "-"
        assert fmt(3) == "3"
        assert fmt(3.14159) == "3.14"
        assert fmt("fails") == "fails"


class TestCoverMintermCount:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_bruteforce(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        space = Space.binary(n)
        rows = data.draw(
            st.lists(
                st.sampled_from(list(space.iter_minterms())),
                max_size=6,
            )
        )
        grown = []
        for m in rows:
            # grow some minterms into cubes for variety
            free = data.draw(st.integers(min_value=0, max_value=n - 1))
            grown.append(m | space.part_masks[free])
        cover = Cover(space, grown)
        brute = len(
            {
                m
                for m in space.iter_minterms()
                if any(contains(c, m) for c in grown)
            }
        )
        assert cover.minterm_count() == brute


class TestAnalysisFaceString:
    def test_face_rendering(self):
        from repro.core.analysis import _face_string
        from repro.encoding import Encoding

        enc = Encoding(["a", "b"], {"a": 0b00, "b": 0b01}, 2)
        assert _face_string(enc, ["a", "b"]) == "0-"
        assert _face_string(enc, ["a"]) == "00"
