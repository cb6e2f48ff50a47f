"""Solve(): generate one code column (Section 3.4).

The column starts at all-ones.  Bits are flipped to 0 one at a time;
each flip is chosen to maximize a weighted dichotomy score, subject to
the *valid partial encoding* invariant: with ``j`` columns generated
out of ``nv``, every group of symbols sharing the same ``j``-bit
prefix must fit in the remaining subspace (at most ``2^(nv-j)``
members).  After ``nv`` columns every group has size at most one, so
the encoding is injective by construction.

The score of a column for a constraint row follows the paper's recipe
(a weighted sum of satisfied seed dichotomies, with weights depending
on constraint size, type and the columns generated so far) extended
with a *future potential* term: when the members agree, outsiders on
the same side are not satisfied now but remain satisfiable by a later
column, so they count with a discount ``beta`` that decays as columns
run out.  On top of the greedy construction a hill-climbing polish
pass (toggles in both directions, validity-preserving) and a few
seeded restarts pick the best column — the paper leaves the cost
function open, and this is the tuning that makes the column-based
strategy competitive.
"""

from __future__ import annotations

import copy
import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cubes.bulk import bit_count
from ..encoding.matrix import ConstraintMatrix, ConstraintRow
from ..obs import resolve_tracer
from ..runtime import InvariantViolation
from .weights import WeightPolicy

__all__ = ["generate_column", "PrefixGroups"]


class PrefixGroups:
    """Tracks groups of symbols sharing the same code prefix.

    Each group is a bitmask over symbol indices (bit ``i`` set when
    ``symbols[i]`` belongs to the group) plus its prefix tuple, in the
    columnar style of the cube kernel: splitting every group under a
    new column is a couple of AND/ANDN operations per group, and group
    sizes are popcounts.  The per-symbol ``prefix`` mapping of the old
    representation survives as a derived read-only property.
    """

    def __init__(self, symbols: Sequence[str], nv: int) -> None:
        self.symbols = list(symbols)
        self.nv = nv
        self.columns_done = 0
        self._index: Dict[str, int] = {
            s: i for i, s in enumerate(self.symbols)
        }
        # one group per distinct prefix; all symbols start with ()
        self._group_prefixes: List[Tuple[int, ...]] = []
        self._group_masks: List[int] = []
        self._group_of: List[int] = [0] * len(self.symbols)
        if self.symbols:
            self._group_prefixes.append(())
            self._group_masks.append((1 << len(self.symbols)) - 1)

    # -- group-id view (the bookkeeping the column builder runs on) ----
    @property
    def n_groups(self) -> int:
        return len(self._group_masks)

    def group_index(self, symbol: str) -> int:
        return self._group_of[self._index[symbol]]

    def group_size(self, gid: int) -> int:
        return bit_count(self._group_masks[gid])

    def _column_mask(self, column: Mapping[str, int]) -> int:
        """Bitmask of symbols the column maps to 1."""
        mask = 0
        for i, s in enumerate(self.symbols):
            if column[s]:
                mask |= 1 << i
        return mask

    # -- legacy per-symbol view ----------------------------------------
    @property
    def prefix(self) -> Dict[str, Tuple[int, ...]]:
        """Per-symbol prefix mapping (derived; do not mutate)."""
        return {
            s: self._group_prefixes[self._group_of[i]]
            for i, s in enumerate(self.symbols)
        }

    def group_sizes(self) -> Dict[Tuple[int, ...], int]:
        return {
            prefix: bit_count(mask)
            for prefix, mask in zip(self._group_prefixes, self._group_masks)
        }

    # ------------------------------------------------------------------
    def cap_after_next_column(self) -> int:
        """Max group size allowed once the next column is appended."""
        remaining = self.nv - (self.columns_done + 1)
        return 1 << max(remaining, 0)

    def apply_column(self, column: Mapping[str, int]) -> None:
        col = self._column_mask(column)
        prefixes: List[Tuple[int, ...]] = []
        masks: List[int] = []
        for prefix, mask in zip(self._group_prefixes, self._group_masks):
            children = [(0, mask & ~col), (1, mask & col)]
            if (mask & -mask) & col:  # first member goes to the 1 side
                children.reverse()
            for value, child in children:
                if child:
                    prefixes.append(prefix + (value,))
                    masks.append(child)
        self._group_prefixes = prefixes
        self._group_masks = masks
        for gid, mask in enumerate(masks):
            while mask:
                low = mask & -mask
                self._group_of[low.bit_length() - 1] = gid
                mask ^= low
        self.columns_done += 1

    def is_valid_column(self, column: Mapping[str, int]) -> bool:
        cap = self.cap_after_next_column()
        col = self._column_mask(column)
        return all(
            bit_count(mask & col) <= cap
            and bit_count(mask & ~col) <= cap
            for mask in self._group_masks
        )

    def clone(self) -> "PrefixGroups":
        twin = PrefixGroups(self.symbols, self.nv)
        twin.columns_done = self.columns_done
        twin._group_prefixes = list(self._group_prefixes)
        twin._group_masks = list(self._group_masks)
        twin._group_of = list(self._group_of)
        return twin


class _RowState:
    """Incremental per-row counters for the column score.

    The score is *dimension aware*, which is what the constraint
    matrix marks are for: a constraint on ``|L|`` symbols can afford
    at most ``nv - ceil(log2 |L|)`` participating (agreeing) columns
    in ``B^nv``, because each one shrinks the face by one dimension
    and the face must still hold ``|L|`` distinct codes.

    * members agree: outsiders on the opposite side are satisfied now
      (full credit); outsiders left on the member side retain the
      discounted potential ``beta`` only while the row can still
      afford another agreeing column — in the row's *last* affordable
      agreeing column they are lost forever and score nothing.
    * members disagree: nothing is satisfied now; all unmarked
      outsiders keep the ``beta`` potential while an agreeing column
      remains affordable.
    """

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
        #: ``_score`` at the current counters, kept by ``_ColumnBuilder``
        self.current = self._score(self.member_ones, self.out_ones)

    def _score(self, member_ones: int, out_ones: int) -> float:
        out_zeros = self.n_out - out_ones
        if self.agree_budget <= 0:
            # the face cannot shrink further; agreement is impossible
            # (and Classify() will retire the row if work remains)
            return 0.0
        if member_ones == self.n_members:  # members agree at 1
            future = self.beta if self.agree_budget >= 2 else 0.0
            return self.weight * (out_zeros + future * out_ones)
        if member_ones == 0:  # members agree at 0
            future = self.beta if self.agree_budget >= 2 else 0.0
            return self.weight * (out_ones + future * out_zeros)
        # members split: the column contributes nothing, but later
        # agreeing columns can still do all the work
        return self.weight * self.beta * self.n_out

    def score(self) -> float:
        return self.current

    def copy(self) -> "_RowState":
        twin = _RowState.__new__(_RowState)
        for name in _RowState.__slots__:
            setattr(twin, name, getattr(self, name))
        return twin

    def newly_satisfied(self) -> int:
        """Unmarked dichotomies this column actually satisfies."""
        out_zeros = self.n_out - self.out_ones
        if self.member_ones == self.n_members:
            return out_zeros
        if self.member_ones == 0:
            return self.out_ones
        return 0


class _ColumnBuilder:
    """One candidate column plus all incremental bookkeeping."""

    def __init__(
        self,
        matrix: ConstraintMatrix,
        groups: PrefixGroups,
        policy: WeightPolicy,
        beta: float,
    ) -> None:
        self.groups = groups
        self.symbols = groups.symbols
        self.cap = groups.cap_after_next_column()
        self.column: Dict[str, int] = {s: 1 for s in self.symbols}
        # infeasible rows keep scoring at reduced weight: each newly
        # marked dichotomy removes an intruder, which is exactly what
        # makes their Theorem I implementation cheap.  Infeasible
        # *guide* rows are dropped (guides-of-guides add nothing).
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
        #: per symbol, the states of the rows it is a member / an
        #: unmarked outsider of, as indices into ``states``
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
        self.member_rows: Dict[str, List[_RowState]] = {
            s: [states[k] for k in ks] for s, ks in self._member_of.items()
        }
        self.outsider_rows: Dict[str, List[_RowState]] = {
            s: [states[k] for k in ks] for s, ks in self._outsider_of.items()
        }

    def clone(self) -> "_ColumnBuilder":
        """An independent builder in the same state; the row tables
        that never change are shared."""
        twin = copy.copy(self)
        twin.column = dict(self.column)
        twin.states = [st.copy() for st in self.states]
        twin._link()
        twin.one_count = list(self.one_count)
        twin.zero_count = list(self.zero_count)
        return twin

    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    def make_valid(self, rng: Optional[random.Random] = None) -> None:
        """Flip 1 -> 0 inside overfull groups until the column is valid."""
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
                raise InvariantViolation(
                    "no admissible flip in an overfull group; the valid "
                    "partial encoding invariant was violated earlier"
                )
            self.toggle(best_s)

    def randomize(self, rng: random.Random) -> None:
        """Jump to a random valid column (seeded restart)."""
        for s in self.symbols:
            if rng.random() < 0.5 and self.admissible_toggle(s):
                self.toggle(s)
        self.make_valid(rng)

    def hill_climb(self, max_rounds: Optional[int] = None) -> None:
        """Steepest-ascent single toggles until a local optimum."""
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


def candidate_columns(
    matrix: ConstraintMatrix,
    groups: PrefixGroups,
    policy: Optional[WeightPolicy] = None,
    limit: int = 1,
    tracer=None,
) -> List[Dict[str, int]]:
    """Up to ``limit`` distinct high-scoring columns, best first.

    One candidate comes from the deterministic greedy construction,
    the rest from seeded random restarts; all are polished by the
    hill climber.  Does not mutate ``matrix``/``groups``.  ``tracer``
    (default: the module-level tracer) counts restarts and the seed
    dichotomies the winning column satisfies.
    """
    if policy is None:
        policy = WeightPolicy()
    tracer = resolve_tracer(tracer)
    remaining_after = groups.nv - groups.columns_done - 1
    beta = policy.future_discount * remaining_after / max(1, groups.nv)

    start = _ColumnBuilder(matrix, groups, policy, beta)

    def build(
        seed: Optional[int],
    ) -> Tuple[float, Dict[str, int], _ColumnBuilder]:
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
    result: List[Dict[str, int]] = []
    seen = set()
    for score, column, _builder in scored:
        key = tuple(column[s] for s in groups.symbols)
        # a column and its complement induce the same partition
        flipped = tuple(1 - b for b in key)
        if key in seen or flipped in seen:
            continue
        seen.add(key)
        if not groups.is_valid_column(column):
            raise InvariantViolation(
                "Solve() produced an invalid column; this indicates a "
                "bug in the admissibility bookkeeping"
            )
        result.append(column)
        if len(result) >= limit:
            break
    return result


def generate_column(
    matrix: ConstraintMatrix,
    groups: PrefixGroups,
    policy: Optional[WeightPolicy] = None,
) -> Dict[str, int]:
    """One Solve() pass; does not mutate ``matrix``/``groups``."""
    return candidate_columns(matrix, groups, policy, limit=1)[0]
