"""Unit tests for internal helpers that the big flows lean on."""

from typing import FrozenSet, List, Optional, Set

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cubes import Cover, Space, contains
from repro.cubes.bulk import bit_count
from repro.espresso.exact import _min_cover


# -- the frozenset covering search, verbatim, as an oracle ---------------
def frozenset_min_cover(rows: List[FrozenSet[int]], n_cols: int) -> Set[int]:
    """Minimum-column cover of the rows (branch and bound)."""
    best: List[Optional[Set[int]]] = [None]

    def search(rows_left: List[FrozenSet[int]], picked: Set[int]) -> None:
        rows_left = frozenset_reduce(rows_left, picked, best)
        if rows_left is None:
            return
        if not rows_left:
            if best[0] is None or len(picked) < len(best[0]):
                best[0] = set(picked)
            return
        if best[0] is not None and len(picked) + 1 >= len(best[0]):
            # even one more column cannot beat the incumbent unless it
            # finishes the job; the bound below handles that case
            pass
        # lower bound: a set of pairwise-disjoint rows needs one column each
        bound = len(picked) + frozenset_independent_rows(rows_left)
        if best[0] is not None and bound >= len(best[0]):
            return
        # branch on the hardest row (fewest choices)
        row = min(rows_left, key=len)
        for col in sorted(row):
            sub = [r for r in rows_left if col not in r]
            search(sub, picked | {col})

    search(rows, set())
    assert best[0] is not None
    return best[0]


def frozenset_reduce(
    rows: List[FrozenSet[int]],
    picked: Set[int],
    best: List[Optional[Set[int]]],
) -> Optional[List[FrozenSet[int]]]:
    """Essential columns + row dominance until fixed point."""
    rows = list(rows)
    while True:
        # essential columns: rows with a single choice
        essentials = {next(iter(r)) for r in rows if len(r) == 1}
        if essentials:
            picked |= essentials
            if best[0] is not None and len(picked) >= len(best[0]):
                return None
            rows = [r for r in rows if not r & essentials]
            continue
        # row dominance: a superset row is implied by its subset row
        rows.sort(key=len)
        kept: List[FrozenSet[int]] = []
        for r in rows:
            if not any(k <= r for k in kept):
                kept.append(r)
        if len(kept) != len(rows):
            rows = kept
            continue
        return rows


def frozenset_independent_rows(rows: List[FrozenSet[int]]) -> int:
    """Greedy maximal set of pairwise-disjoint rows (covering lower bound)."""
    used: Set[int] = set()
    count = 0
    for r in sorted(rows, key=len):
        if not r & used:
            count += 1
            used |= r
    return count


def row(*cols):
    """The int row of the given columns."""
    return sum(1 << col for col in cols)


def columns(picked):
    """The set of columns in a picked-column mask."""
    return {col for col in range(picked.bit_length()) if picked >> col & 1}


@st.composite
def row_lists(draw, max_cols=6, max_rows=8):
    """(rows as column sets, number of columns)."""
    n_cols = draw(st.integers(min_value=1, max_value=max_cols))
    n_rows = draw(st.integers(min_value=1, max_value=max_rows))
    rows = [
        draw(st.sets(st.integers(min_value=0, max_value=n_cols - 1),
                     min_size=1))
        for _ in range(n_rows)
    ]
    return rows, n_cols


class TestMinCover:
    """``_min_cover`` takes rows as column bitmasks and returns the
    bitmask of the columns picked."""

    def test_essential_column(self):
        assert _min_cover([row(0), row(0, 1)]) == row(0)

    def test_needs_two(self):
        assert _min_cover([row(0), row(1)]) == row(0, 1)

    def test_picks_minimum_not_greedy_trap(self):
        # greedy would pick column 2 (covers 2 rows) then need 2 more;
        # optimum is columns {0, 1}
        rows = [row(0, 2), row(1, 2), row(0), row(1)]
        assert _min_cover(rows) == row(0, 1)

    def test_row_dominance(self):
        assert _min_cover([row(0), row(0, 1, 2)]) == row(0)

    @settings(max_examples=60, deadline=None)
    @given(row_lists())
    def test_result_always_covers(self, drawn):
        sets, n_cols = drawn
        rows = [row(*cols) for cols in sets]
        picked = _min_cover(rows)
        assert all(r & picked for r in rows)
        # minimality against brute force
        import itertools

        for k in range(bit_count(picked)):
            for combo in itertools.combinations(range(n_cols), k):
                assert not all(r & row(*combo) for r in rows)

    @settings(max_examples=300, deadline=None)
    @given(row_lists(max_cols=12, max_rows=14))
    def test_same_columns_as_frozenset_search(self, drawn):
        """The same columns as the frozenset search it ports, so
        ``exact_minimize`` picks the same cover."""
        sets, n_cols = drawn
        want = frozenset_min_cover([frozenset(c) for c in sets], n_cols)
        assert columns(_min_cover([row(*cols) for cols in sets])) == want


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
