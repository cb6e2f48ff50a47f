"""The table-driven local searches against the code they replaced.

PICOLA's column builder keeps flat per-row lists with cached toggle
deltas and per-symbol lists indexed by symbol position, and scans
candidates without a call per symbol; its final repair and NOVA's
anneal look faces up in :func:`repro.encoding.codes.face_table`.  The
builder as it kept one ``_RowState`` object per row and its symbol
state in name-keyed dicts, verbatim below, is the oracle of the first:
on Table I's sets (two synthesis draws) and on small hand-built sets
that pin ``make_valid``'s candidate order and its row-less candidates.
:meth:`CodeSpace.face` is the oracle of the table.
"""

import copy
import random
from typing import Dict, List, Mapping, Optional, Tuple

import pytest

from repro.core import WeightPolicy, picola_encode
from repro.core import picola as picola_module
from repro.core.solve import candidate_columns
from repro.encoding import (
    ConstraintSet,
    FaceConstraint,
    derive_face_constraints,
)
from repro.encoding.codes import CodeSpace, face_table
from repro.encoding.matrix import ConstraintRow
from repro.fsm import TABLE1_FSMS, load_benchmark
from repro.obs import Tracer
from repro.runtime import InvariantViolation


# ----------------------------------------------------------------------
# the per-row-object column builder, verbatim
# ----------------------------------------------------------------------
class _RowState:
    __slots__ = (
        "row", "weight", "beta", "n_members",
        "member_ones", "out_ones", "n_out", "agree_budget", "current",
    )

    def __init__(self, row: ConstraintRow, weight: float, beta: float,
                 column: Mapping[str, int], nv: int) -> None:
        self.row = row
        self.weight = weight
        self.beta = beta
        self.n_members = len(row.members)
        self.member_ones = sum(column[s] for s in row.members)
        unmarked = [s for s, m in row.marks.items() if m == 0]
        self.n_out = len(unmarked)
        self.out_ones = sum(column[s] for s in unmarked)
        allowed_agree = nv - row.constraint.min_dimension()
        self.agree_budget = allowed_agree - len(row.agree_columns)
        self.current = self._score(self.member_ones, self.out_ones)

    def _score(self, member_ones: int, out_ones: int) -> float:
        out_zeros = self.n_out - out_ones
        if self.agree_budget <= 0:
            return 0.0
        if member_ones == self.n_members:
            future = self.beta if self.agree_budget >= 2 else 0.0
            return self.weight * (out_zeros + future * out_ones)
        if member_ones == 0:
            future = self.beta if self.agree_budget >= 2 else 0.0
            return self.weight * (out_ones + future * out_zeros)
        return self.weight * self.beta * self.n_out

    def score(self) -> float:
        return self.current

    def copy(self) -> "_RowState":
        twin = _RowState.__new__(_RowState)
        for name in _RowState.__slots__:
            setattr(twin, name, getattr(self, name))
        return twin

    def newly_satisfied(self) -> int:
        out_zeros = self.n_out - self.out_ones
        if self.member_ones == self.n_members:
            return out_zeros
        if self.member_ones == 0:
            return self.out_ones
        return 0


class _ColumnBuilder:
    def __init__(self, matrix, groups, policy, beta) -> None:
        self.groups = groups
        self.symbols = groups.symbols
        self.cap = groups.cap_after_next_column()
        self.column: Dict[str, int] = {s: 1 for s in self.symbols}
        rows = [
            r
            for r in matrix.rows
            if not (r.infeasible and r.constraint.is_guide())
        ]
        self.states = []
        for r in rows:
            weight = policy.row_weight(r)
            if r.infeasible:
                weight *= policy.infeasible_factor
            self.states.append(
                _RowState(r, weight, beta, self.column, matrix.nv)
            )
        self._member_of: Dict[str, List[int]] = {s: [] for s in self.symbols}
        self._outsider_of: Dict[str, List[int]] = {
            s: [] for s in self.symbols
        }
        for k, st in enumerate(self.states):
            for s in st.row.members:
                self._member_of[s].append(k)
            for s, m in st.row.marks.items():
                if m == 0:
                    self._outsider_of[s].append(k)
        self._link()
        self.gid: Dict[str, int] = {
            s: groups.group_index(s) for s in self.symbols
        }
        self.one_count: List[int] = [
            groups.group_size(g) for g in range(groups.n_groups)
        ]
        self.zero_count: List[int] = [0] * groups.n_groups

    def _link(self) -> None:
        states = self.states
        self.member_rows = {
            s: [states[k] for k in ks] for s, ks in self._member_of.items()
        }
        self.outsider_rows = {
            s: [states[k] for k in ks] for s, ks in self._outsider_of.items()
        }

    def clone(self) -> "_ColumnBuilder":
        twin = copy.copy(self)
        twin.column = dict(self.column)
        twin.states = [st.copy() for st in self.states]
        twin._link()
        twin.one_count = list(self.one_count)
        twin.zero_count = list(self.zero_count)
        return twin

    def overfull(self) -> bool:
        return any(v > self.cap for v in self.one_count)

    def admissible_toggle(self, s: str) -> bool:
        gid = self.gid[s]
        if self.column[s] == 1:
            return self.zero_count[gid] + 1 <= self.cap
        return self.one_count[gid] + 1 <= self.cap

    def toggle_gain(self, s: str) -> float:
        delta = -1 if self.column[s] == 1 else 1
        gain = 0.0
        for st in self.member_rows[s]:
            gain += st._score(st.member_ones + delta, st.out_ones) - st.current
        for st in self.outsider_rows[s]:
            gain += st._score(st.member_ones, st.out_ones + delta) - st.current
        return gain

    def toggle(self, s: str) -> None:
        delta = -1 if self.column[s] == 1 else 1
        self.column[s] += delta
        gid = self.gid[s]
        self.one_count[gid] += delta
        self.zero_count[gid] -= delta
        for st in self.member_rows[s]:
            st.member_ones += delta
            st.current = st._score(st.member_ones, st.out_ones)
        for st in self.outsider_rows[s]:
            st.out_ones += delta
            st.current = st._score(st.member_ones, st.out_ones)

    def total_score(self) -> float:
        return sum(st.score() for st in self.states)

    def make_valid(self, rng: Optional[random.Random] = None) -> None:
        while self.overfull():
            best_s = None
            best_gain = float("-inf")
            for s in self.symbols:
                if self.column[s] != 1:
                    continue
                gid = self.gid[s]
                if self.one_count[gid] <= self.cap:
                    continue
                if self.zero_count[gid] + 1 > self.cap:
                    continue
                g = self.toggle_gain(s)
                if rng is not None:
                    g += rng.random() * 1e-6
                if g > best_gain:
                    best_gain = g
                    best_s = s
            if best_s is None:
                raise InvariantViolation("no admissible flip")
            self.toggle(best_s)

    def randomize(self, rng: random.Random) -> None:
        for s in self.symbols:
            if rng.random() < 0.5 and self.admissible_toggle(s):
                self.toggle(s)
        self.make_valid(rng)

    def hill_climb(self, max_rounds: Optional[int] = None) -> None:
        if max_rounds is None:
            max_rounds = 6 * len(self.symbols)
        for _ in range(max_rounds):
            best_s = None
            best_gain = 1e-9
            for s in self.symbols:
                if not self.admissible_toggle(s):
                    continue
                g = self.toggle_gain(s)
                if g > best_gain:
                    best_gain = g
                    best_s = s
            if best_s is None:
                break
            self.toggle(best_s)


def oracle_candidate_columns(matrix, groups, policy=None, limit=1,
                             tracer=None):
    """``candidate_columns`` on the per-row-object builder, verbatim."""
    if policy is None:
        policy = WeightPolicy()
    remaining_after = groups.nv - groups.columns_done - 1
    beta = policy.future_discount * remaining_after / max(1, groups.nv)

    start = _ColumnBuilder(matrix, groups, policy, beta)

    def build(seed):
        builder = start.clone()
        if seed is None:
            builder.make_valid()
        else:
            builder.randomize(random.Random(seed))
        builder.hill_climb()
        return builder.total_score(), dict(builder.column), builder

    scored: List[Tuple[float, Dict[str, int], _ColumnBuilder]] = [
        build(None)
    ]
    for r in range(policy.restarts):
        scored.append(build(1009 * (groups.columns_done + 1) + r))
    tracer.count("solve.restarts", policy.restarts)
    scored.sort(key=lambda pair: -pair[0])
    if scored:
        tracer.count(
            "solve.dichotomies_satisfied",
            sum(st.newly_satisfied() for st in scored[0][2].states),
        )
    result = []
    seen = set()
    for score, column, _builder in scored:
        key = tuple(column[s] for s in groups.symbols)
        flipped = tuple(1 - b for b in key)
        if key in seen or flipped in seen:
            continue
        seen.add(key)
        result.append(column)
        if len(result) >= limit:
            break
    return result


@pytest.mark.parametrize("name", TABLE1_FSMS)
def test_columns_match_row_objects(name, monkeypatch):
    """Every column step PICOLA takes on a Table I constraint set
    (reference draw): list-equal candidate columns, and the same
    restart and satisfied-dichotomy counts, as the per-row-object
    builder."""
    fsm = load_benchmark(name, seed=0)
    _check_column_steps(derive_face_constraints(fsm), monkeypatch)


def _check_column_steps(cset, monkeypatch, nv=None) -> None:
    """Every column step of ``picola_encode(cset, nv=nv)`` gives the
    per-row-object builder's columns and counters."""
    steps = []

    def checking_columns(matrix, groups, policy=None, limit=1,
                         tracer=None):
        mine, theirs = Tracer(), Tracer()
        got = candidate_columns(matrix, groups, policy, limit, mine)
        want = oracle_candidate_columns(
            matrix, groups, policy, limit, theirs
        )
        steps.append(
            got == want and mine.counters() == theirs.counters()
        )
        return got

    monkeypatch.setattr(picola_module, "candidate_columns", checking_columns)
    picola_encode(cset, nv=nv)
    assert steps and all(steps)


@pytest.mark.parametrize("name", TABLE1_FSMS)
def test_columns_match_row_objects_run_draw(name, monkeypatch):
    """The same on a second synthesis draw of every Table I FSM."""
    fsm = load_benchmark(name, seed=10012)
    _check_column_steps(derive_face_constraints(fsm), monkeypatch)


#: small sets, each with its code length, where ``make_valid`` must
#: visit the same candidates in the same order as the oracle
HAND_BUILT = {
    # at column 3 of B^4 every symbol with a live row loses score
    # when it flips to 0, so a greedy flip goes to a symbol whose rows
    # are all marked: its 0.0 gain wins.  A scan that skips such
    # symbols while others remain picks another column
    "rowless-wins": (9, 4, [[1, 4, 7, 8], [2, 7]]),
    # the same one bit above the minimum length
    "rowless-wins-spare-bit": (
        8, 4, [[0, 2, 3, 4], [0, 1, 5, 7], [1, 6], [0, 1, 3, 6]],
    ),
    # full spaces: at column 1 both halves start overfull (and at
    # column 2 all four quarters), so every restart's flips come from
    # several groups in one scan
    "overfull-groups-b3": (
        8, 3, [[0, 1], [2, 3, 4], [1, 5], [6, 7]],
    ),
    "overfull-groups-b4": (
        16, 4, [[0, 1, 2, 3], [4, 5], [6, 7, 8], [9, 10, 11, 12, 13],
                [1, 14], [3, 15, 7]],
    ),
    # two bits above the minimum: the caps stay loose for longer, so
    # no group is overfull before column 2
    "two-bits-spare": (
        6, 5, [[0, 1, 2], [3, 4], [1, 5]],
    ),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_columns_match_row_objects_hand_built(case, monkeypatch):
    n, nv, groups = HAND_BUILT[case]
    symbols = [f"s{i}" for i in range(n)]
    cset = ConstraintSet(
        symbols, [FaceConstraint({symbols[i] for i in g}) for g in groups]
    )
    _check_column_steps(cset, monkeypatch, nv=nv)


# ----------------------------------------------------------------------
# face table vs CodeSpace.face
# ----------------------------------------------------------------------
def _table_face(table, nv, codes: int) -> int:
    lo, hi = (1 << nv) - 1, 0
    for c in range(1 << nv):
        if codes >> c & 1:
            lo &= c
            hi |= c
    return table[lo << nv | hi]


@pytest.mark.parametrize("nv", range(0, 5))
def test_face_table_every_code_set(nv):
    space, table = CodeSpace(nv), face_table(nv)
    for codes in range(1, 1 << (1 << nv)):
        assert _table_face(table, nv, codes) == space.face(codes)[1]


@pytest.mark.parametrize("nv", range(5, 8))
def test_face_table_sampled_code_sets(nv):
    space, table = CodeSpace(nv), face_table(nv)
    rng = random.Random(nv)
    size = 1 << nv
    for _ in range(2000):
        # sparse and dense sets: faces of every dimension
        k = rng.choice([1, 2, 3, rng.randrange(1, size + 1)])
        codes = sum(1 << c for c in rng.sample(range(size), k))
        assert _table_face(table, nv, codes) == space.face(codes)[1]


def test_face_table_fills_on_demand():
    """A wide code space's table holds only the faces looked up, and
    every caller shares one table per width."""
    nv = 12
    space, table = CodeSpace(nv), face_table(nv)
    rng = random.Random(3)
    for _ in range(200):
        codes = sum(1 << c for c in rng.sample(range(1 << nv), 3))
        assert _table_face(table, nv, codes) == space.face(codes)[1]
    assert len(table) <= 200
    assert face_table(nv) is table
