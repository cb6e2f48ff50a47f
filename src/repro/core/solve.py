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
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

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


class _ColumnBuilder:
    """One candidate column plus all incremental bookkeeping.

    The column score is *dimension aware*, which is what the
    constraint matrix marks are for: a constraint on ``|L|`` symbols
    can afford at most ``nv - ceil(log2 |L|)`` participating
    (agreeing) columns in ``B^nv``, because each one shrinks the face
    by one dimension and the face must still hold ``|L|`` distinct
    codes.  Per row (see :meth:`_refresh`):

    * members agree: outsiders on the opposite side are satisfied now
      (full credit); outsiders left on the member side retain the
      discounted potential ``beta`` only while the row can still
      afford another agreeing column — in the row's *last* affordable
      agreeing column they are lost forever and score nothing.
    * members disagree: nothing is satisfied now; all unmarked
      outsiders keep the ``beta`` potential while an agreeing column
      remains affordable.

    Row state lives in flat lists indexed by row: the static terms,
    the member/outsider one-counts, the current score and the four
    toggle deltas (the score change when one member or one outsider
    flips down or up).  Symbol state lives in lists indexed by the
    symbol's position in ``groups.symbols``: the column bit, the
    prefix group and the live rows it is a member / an outsider of.
    A flip only moves counts and marks its rows dirty; their score
    and deltas are recomputed before the next gain is read, so a gain
    is a sum of cached deltas: member rows, then outsider rows, in
    row order.
    """

    def __init__(
        self,
        matrix: ConstraintMatrix,
        groups: PrefixGroups,
        policy: WeightPolicy,
        beta: float,
    ) -> None:
        self.groups = groups
        self.symbols = groups.symbols
        position = {s: i for i, s in enumerate(self.symbols)}
        self.cap = groups.cap_after_next_column()
        self.column: List[int] = [1] * len(self.symbols)
        # infeasible rows stay at reduced weight, and one scores only
        # while it can still afford an agreeing column
        # (``agree_budget > 0`` below): then each newly marked
        # dichotomy removes an intruder, which is what makes its
        # Theorem I implementation cheap.  A row with no agree budget
        # left (5 members in B^3, say) is never live and adds 0.0 to
        # every gain.  Infeasible *guide* rows are dropped
        # (guides-of-guides add nothing).
        self.rows: List[ConstraintRow] = [
            r
            for r in matrix.rows
            if not (r.infeasible and r.constraint.is_guide())
        ]
        self.weight: List[float] = []
        self.n_members: List[int] = []
        self.n_out: List[int] = []
        #: beta while the row can afford two more agreeing columns
        self.future: List[float] = []
        #: the score of a row whose members split
        self.split: List[float] = []
        #: rows with a stale score and deltas; only *live* rows, which
        #: can still afford an agreeing column, are ever dirty: the
        #: others score 0.0 at every count and add nothing to a gain
        self._dirty: Set[int] = set()
        #: per symbol position, the live rows it is a member / an
        #: unmarked outsider of, in row order
        self._member_of: List[List[int]] = [[] for _ in self.symbols]
        self._outsider_of: List[List[int]] = [[] for _ in self.symbols]
        for k, r in enumerate(self.rows):
            weight = policy.row_weight(r)
            if r.infeasible:
                weight *= policy.infeasible_factor
            unmarked = [s for s, m in r.marks.items() if m == 0]
            agree_budget = (
                matrix.nv - r.constraint.min_dimension()
                - len(r.agree_columns)
            )
            self.weight.append(weight)
            self.n_members.append(len(r.members))
            self.n_out.append(len(unmarked))
            self.future.append(beta if agree_budget >= 2 else 0.0)
            self.split.append(weight * beta * len(unmarked))
            if agree_budget > 0:
                self._dirty.add(k)
                for s in r.members:
                    self._member_of[position[s]].append(k)
                for s in unmarked:
                    self._outsider_of[position[s]].append(k)
        #: the symbols with a live row; any other one's gain is 0.0
        self._live: List[int] = [
            i for i, (m, o) in enumerate(zip(self._member_of,
                                              self._outsider_of))
            if m or o
        ]
        # the all-ones column: every count at its maximum
        self.member_ones: List[int] = list(self.n_members)
        self.out_ones: List[int] = list(self.n_out)
        n_rows = len(self.rows)
        self.current: List[float] = [0.0] * n_rows
        self.member_down: List[float] = [0.0] * n_rows
        self.member_up: List[float] = [0.0] * n_rows
        self.out_down: List[float] = [0.0] * n_rows
        self.out_up: List[float] = [0.0] * n_rows
        self._refresh()
        self.gid: List[int] = list(groups._group_of)
        self.one_count: List[int] = [
            groups.group_size(g) for g in range(groups.n_groups)
        ]
        self.zero_count: List[int] = [0] * groups.n_groups

    def _refresh(self) -> None:
        """Recompute the score and toggle deltas of the dirty rows.

        A live row scores ``weight * (zeros + future * ones)`` over its
        outsiders when its members agree at 1, ``weight * (ones +
        future * zeros)`` when they agree at 0, and ``split`` when they
        disagree.  A delta is never read where its flip is impossible
        (no member left at 1 to flip down, say); it holds ``split``
        minus the score there.
        """
        weight, future, split = self.weight, self.future, self.split
        n_members, n_out = self.n_members, self.n_out
        member_ones, out_ones = self.member_ones, self.out_ones
        current = self.current
        member_down, member_up = self.member_down, self.member_up
        out_down, out_up = self.out_down, self.out_up
        for k in self._dirty:
            m = member_ones[k]
            ones = out_ones[k]
            zeros = n_out[k] - ones
            w = weight[k]
            f = future[k]
            split_k = split[k]
            if m == n_members[k]:  # members agree at 1
                now = w * (zeros + f * ones)
                out_down[k] = w * (zeros + 1 + f * (ones - 1)) - now
                out_up[k] = w * (zeros - 1 + f * (ones + 1)) - now
            elif m == 0:  # members agree at 0
                now = w * (ones + f * zeros)
                out_down[k] = w * (ones - 1 + f * (zeros + 1)) - now
                out_up[k] = w * (ones + 1 + f * (zeros - 1)) - now
            else:
                # members split: the column contributes nothing, but
                # later agreeing columns can still do all the work
                now = split_k
                out_down[k] = out_up[k] = 0.0
            current[k] = now
            if m == 1:
                member_down[k] = w * (ones + f * zeros) - now
            else:
                member_down[k] = split_k - now
            if m + 1 == n_members[k]:
                member_up[k] = w * (zeros + f * ones) - now
            else:
                member_up[k] = split_k - now
        self._dirty.clear()

    def clone(self) -> "_ColumnBuilder":
        """An independent builder in the same state; the row tables
        that never change are shared."""
        twin = copy.copy(self)
        for name in (
            "column", "member_ones", "out_ones", "current", "member_down",
            "member_up", "out_down", "out_up", "one_count", "zero_count",
        ):
            setattr(twin, name, list(getattr(self, name)))
        twin._dirty = set(self._dirty)
        return twin

    # ------------------------------------------------------------------
    def flip(self, i: int) -> None:
        """Toggle the bit of the symbol at position ``i``."""
        delta = -1 if self.column[i] else 1
        self.column[i] += delta
        gid = self.gid[i]
        self.one_count[gid] += delta
        self.zero_count[gid] -= delta
        member_ones = self.member_ones
        for k in self._member_of[i]:
            member_ones[k] += delta
        out_ones = self.out_ones
        for k in self._outsider_of[i]:
            out_ones[k] += delta
        self._dirty.update(self._member_of[i], self._outsider_of[i])

    def total_score(self) -> float:
        if self._dirty:
            self._refresh()
        return sum(self.current)

    def newly_satisfied(self) -> int:
        """Unmarked dichotomies the column actually satisfies."""
        total = 0
        for k, n_members in enumerate(self.n_members):
            if self.member_ones[k] == n_members:
                total += self.n_out[k] - self.out_ones[k]
            elif self.member_ones[k] == 0:
                total += self.out_ones[k]
        return total

    # ------------------------------------------------------------------
    def make_valid(self, rng: Optional[random.Random] = None) -> None:
        """Flip 1 -> 0 inside overfull groups until the column is valid.

        The candidates are the 1s of every overfull group that still
        has room on the 0 side, walked in symbol order from a bitmask
        of those groups.  A symbol with no live row is a candidate
        too: its 0.0 gain can be the best one.
        """
        cap, column = self.cap, self.column
        one_count, zero_count = self.one_count, self.zero_count
        masks = self.groups._group_masks
        member_of, outsider_of = self._member_of, self._outsider_of
        member_down, out_down = self.member_down, self.out_down
        while True:
            overfull = False
            candidates = 0
            for gid, ones in enumerate(one_count):
                if ones > cap:
                    overfull = True
                    if zero_count[gid] < cap:
                        candidates |= masks[gid]
            if not overfull:
                return
            if self._dirty:
                self._refresh()
            best_i = -1
            best_gain = float("-inf")
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                i = low.bit_length() - 1
                if not column[i]:
                    continue
                g = 0.0
                for k in member_of[i]:
                    g += member_down[k]
                for k in outsider_of[i]:
                    g += out_down[k]
                if rng is not None:
                    g += rng.random() * 1e-6
                if g > best_gain:
                    best_gain = g
                    best_i = i
            if best_i < 0:
                raise InvariantViolation(
                    "no admissible flip in an overfull group; the valid "
                    "partial encoding invariant was violated earlier"
                )
            self.flip(best_i)

    def randomize(self, rng: random.Random) -> None:
        """Jump to a random valid column (seeded restart)."""
        cap, column, gid = self.cap, self.column, self.gid
        one_count, zero_count = self.one_count, self.zero_count
        for i in range(len(column)):
            if rng.random() < 0.5 and (
                zero_count if column[i] else one_count
            )[gid[i]] < cap:
                self.flip(i)
        self.make_valid(rng)

    def hill_climb(self, max_rounds: Optional[int] = None) -> None:
        """Steepest-ascent single flips until a local optimum.

        Only symbols with a live row are scanned: any other one's gain
        is 0.0, which never beats the 1e-9 threshold.
        """
        if max_rounds is None:
            max_rounds = 6 * len(self.symbols)
        cap, column, gid = self.cap, self.column, self.gid
        one_count, zero_count = self.one_count, self.zero_count
        member_of, outsider_of = self._member_of, self._outsider_of
        member_down, out_down = self.member_down, self.out_down
        member_up, out_up = self.member_up, self.out_up
        live = self._live
        for _ in range(max_rounds):
            if self._dirty:
                self._refresh()
            best_i = -1
            best_gain = 1e-9
            for i in live:
                if column[i]:
                    if zero_count[gid[i]] >= cap:
                        continue
                    member, out = member_down, out_down
                else:
                    if one_count[gid[i]] >= cap:
                        continue
                    member, out = member_up, out_up
                g = 0.0
                for k in member_of[i]:
                    g += member[k]
                for k in outsider_of[i]:
                    g += out[k]
                if g > best_gain:
                    best_gain = g
                    best_i = i
            if best_i < 0:
                break
            self.flip(best_i)


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
    rng = random.Random()

    def build(seed: Optional[int]) -> Tuple[float, _ColumnBuilder]:
        builder = start.clone()
        if seed is None:
            builder.make_valid()
        else:
            rng.seed(seed)
            builder.randomize(rng)
        builder.hill_climb()
        return builder.total_score(), builder

    scored: List[Tuple[float, _ColumnBuilder]] = [build(None)]
    for r in range(policy.restarts):
        scored.append(build(1009 * (groups.columns_done + 1) + r))
    tracer.count("solve.restarts", policy.restarts)
    scored.sort(key=lambda pair: -pair[0])
    if scored:
        tracer.count(
            "solve.dichotomies_satisfied",
            scored[0][1].newly_satisfied(),
        )
    result: List[Dict[str, int]] = []
    seen = set()
    for _score, builder in scored:
        key = tuple(builder.column)
        # a column and its complement induce the same partition
        flipped = tuple(1 - b for b in key)
        if key in seen or flipped in seen:
            continue
        seen.add(key)
        column = dict(zip(groups.symbols, key))
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
