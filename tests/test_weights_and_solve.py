"""Tests for weight policies and Solve() internals."""

import pytest

from repro.core import PRESETS, WeightPolicy, PrefixGroups
from repro.core.solve import candidate_columns
from repro.encoding import ConstraintMatrix, ConstraintSet, FaceConstraint


def cset_of(n, groups):
    syms = [f"s{i}" for i in range(n)]
    return ConstraintSet(
        syms, [FaceConstraint({f"s{i}" for i in g}) for g in groups]
    )


class TestWeightPolicy:
    def test_presets_exist(self):
        for name in ("picola", "dichotomy_count", "constraint_count"):
            assert name in PRESETS

    def test_guide_discount(self):
        cs = cset_of(6, [[0, 1, 2]])
        matrix = ConstraintMatrix(cs, 3)
        row = matrix.rows[0]
        policy = WeightPolicy(guide_factor=0.5, progress_bonus=0.0,
                              size_exponent=0.0)
        w_original = policy.row_weight(row)
        guide = FaceConstraint({"s3", "s4"}, kind="guide",
                               parent=row.members)
        guide_row = matrix.add_constraint(guide)
        assert policy.row_weight(guide_row) == pytest.approx(
            0.5 * w_original * (len(row.members) / len(row.members))
        )

    def test_progress_bonus_grows_with_marks(self):
        cs = cset_of(6, [[0, 1]])
        matrix = ConstraintMatrix(cs, 3)
        row = matrix.rows[0]
        policy = WeightPolicy(progress_bonus=1.0)
        before = policy.row_weight(row)
        column = {s: 1 if s in ("s0", "s1") else 0 for s in cs.symbols}
        matrix.record_column(column)
        assert policy.row_weight(row) > before

    def test_size_exponent_prefers_small(self):
        cs = cset_of(8, [[0, 1], [2, 3, 4, 5]])
        matrix = ConstraintMatrix(cs, 3)
        policy = WeightPolicy(size_exponent=1.0, progress_bonus=0.0)
        small = policy.row_weight(matrix.rows[0])
        large = policy.row_weight(matrix.rows[1])
        assert small > large

    def test_constraint_weight_multiplies(self):
        cs = ConstraintSet(
            ["a", "b", "c"], [FaceConstraint({"a", "b"}, weight=3.0)]
        )
        matrix = ConstraintMatrix(cs, 2)
        policy = WeightPolicy(progress_bonus=0.0, size_exponent=0.0)
        assert policy.row_weight(matrix.rows[0]) == pytest.approx(3.0)


class TestPrefixGroups:
    def test_clone_independent(self):
        groups = PrefixGroups(["a", "b", "c", "d"], 2)
        twin = groups.clone()
        groups.apply_column({"a": 0, "b": 0, "c": 1, "d": 1})
        assert twin.columns_done == 0
        assert twin.prefix["a"] == ()

    def test_group_sizes(self):
        groups = PrefixGroups(["a", "b", "c"], 2)
        groups.apply_column({"a": 0, "b": 0, "c": 1})
        assert groups.group_sizes() == {(0,): 2, (1,): 1}

    def test_final_cap_is_one(self):
        groups = PrefixGroups(["a", "b"], 1)
        assert groups.cap_after_next_column() == 1


class TestCandidateColumns:
    def test_limit_respected_and_distinct(self):
        cs = cset_of(10, [[0, 1, 2], [3, 4], [5, 6, 7]])
        matrix = ConstraintMatrix(cs, 4)
        groups = PrefixGroups(list(cs.symbols), 4)
        cands = candidate_columns(matrix, groups, limit=3)
        assert 1 <= len(cands) <= 3
        keys = set()
        for col in cands:
            key = tuple(col[s] for s in cs.symbols)
            flipped = tuple(1 - b for b in key)
            assert key not in keys and flipped not in keys
            keys.add(key)

    def test_all_candidates_valid(self):
        cs = cset_of(9, [[0, 1, 2, 3]])
        matrix = ConstraintMatrix(cs, 4)
        groups = PrefixGroups(list(cs.symbols), 4)
        for col in candidate_columns(matrix, groups, limit=4):
            assert groups.is_valid_column(col)

    def test_empty_constraint_matrix_ok(self):
        cs = cset_of(5, [])
        matrix = ConstraintMatrix(cs, 3)
        groups = PrefixGroups(list(cs.symbols), 3)
        cands = candidate_columns(matrix, groups, limit=2)
        assert cands and groups.is_valid_column(cands[0])


class TestInfeasibleRowSteering:
    """Infeasible rows keep shrinking their intruder sets (the fix
    behind the scf Table I row; see core/solve.py)."""

    def test_infeasible_row_still_scores(self):
        from repro.core.solve import _ColumnBuilder
        from repro.core.weights import WeightPolicy

        cs = cset_of(8, [[0, 1, 2, 3, 4]])  # infeasible in B^3
        matrix = ConstraintMatrix(cs, 3)
        matrix.rows[0].infeasible = True
        groups = PrefixGroups(list(cs.symbols), 3)
        builder = _ColumnBuilder(matrix, groups, WeightPolicy(), 0.5)
        # kept at a positive weight, but 5 members fill B^3: no
        # agreeing column is affordable, so the row is not live
        assert len(builder.rows) == 1
        assert builder.weight[0] > 0

    @pytest.mark.parametrize(
        "members, live", [([0, 1, 2], True), ([0, 1, 2, 3, 4], False)],
        ids=["agree-budget-left", "no-agree-budget"],
    )
    def test_infeasible_row_scores_only_with_agree_budget(
        self, members, live
    ):
        from repro.core.solve import _ColumnBuilder
        from repro.core.weights import WeightPolicy

        cs = cset_of(8, [members])
        matrix = ConstraintMatrix(cs, 3)
        matrix.rows[0].infeasible = True
        groups = PrefixGroups(list(cs.symbols), 3)
        builder = _ColumnBuilder(matrix, groups, WeightPolicy(), 0.5)
        before = builder.total_score()
        gains = []
        for i in range(len(cs.symbols)):  # symbol positions
            builder.flip(i)
            gains.append(builder.total_score() - before)
            builder.flip(i)
        if live:  # a member's flip changes the row's score
            assert gains[0] != 0.0
        else:
            assert gains == [0.0] * len(cs.symbols)

    def test_infeasible_guide_rows_dropped(self):
        from repro.core.solve import _ColumnBuilder
        from repro.core.weights import WeightPolicy
        from repro.encoding import FaceConstraint

        cs = cset_of(6, [[0, 1]])
        matrix = ConstraintMatrix(cs, 3)
        guide = FaceConstraint({"s2", "s3"}, kind="guide",
                               parent=frozenset({"s0", "s1"}))
        row = matrix.add_constraint(guide)
        row.infeasible = True
        groups = PrefixGroups(list(cs.symbols), 3)
        builder = _ColumnBuilder(matrix, groups, WeightPolicy(), 0.5)
        assert builder.rows
        assert all(not r.constraint.is_guide() for r in builder.rows)

    def test_marks_shrink_intruders_of_infeasible_rows(self):
        from repro.core import picola_encode

        cs = cset_of(8, [[0, 1, 2, 3, 4]])
        result = picola_encode(cs)
        (row,) = result.matrix.original_rows()
        assert row.infeasible
        # the dichotomy pressure should have cut intruders well below
        # "all three outsiders end up on the face"
        assert len(result.encoding.intruders(row.members)) <= 3
