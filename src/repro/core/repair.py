"""Final repair: local search on the finished encoding.

The column generator commits to one column at a time; a cheap
post-pass over the complete encoding (swapping code pairs and moving
symbols to unused codes) recovers most of what that myopia loses.
The objective is the same weighted constraint-satisfaction measure
that drives the columns — satisfied faces first, then the fraction of
outsiders already excluded — so the pass never trades a satisfied
constraint for partial progress elsewhere.

This pass is an implementation liberty on top of the paper's
pseudocode (the paper's cost function is unpublished; see DESIGN.md);
``PicolaOptions(final_repair=False)`` disables it, and the ablation
bench measures its contribution.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..cubes.bulk import bit_count
from ..encoding.codes import (
    CodeSpace,
    Encoding,
    _FlagFaces,
    code_set,
    face_table,
)
from ..encoding.constraints import ConstraintSet
from ..runtime import InvalidSpecError

__all__ = ["polish_encoding", "satisfaction_cost_score"]

#: credit for excluding outsiders from a violated constraint's face
_PARTIAL = 0.3
#: weight of the Theorem I cost estimate relative to satisfaction
_COST = 0.12


def _constraint_score(
    space: CodeSpace,
    face: Tuple[int, int],
    members: int,
    occupied: int,
    n_members: int,
    n_outsiders: int,
    weight: float,
) -> float:
    """Satisfaction first, estimated implementation cost as tie-break.

    A satisfied constraint scores full credit.  A violated one earns
    partial credit for every outsider already excluded from its face,
    minus a term proportional to its estimated cube cost: the paper's
    Theorem I bound ``dim[super(L)] - dim[super(I)]`` when the
    intruders' supercube avoids the members, a pessimistic
    per-intruder count otherwise.  Maximizing this both chases
    satisfied faces (NOVA's objective) and keeps violated constraints
    cheap to implement (PICOLA's).  ``members`` and ``occupied`` are
    the code sets of the members and of every symbol, ``face`` is
    ``space.face(members)``.
    """
    mask, on = face
    intruders = on & occupied & ~members
    if not intruders:
        return weight * (1.0 - _COST)
    n_intruders = bit_count(intruders)
    mask_i, on_i = space.face(intruders)
    if on_i & members:
        estimate = min(1 + n_intruders, n_members)
    else:
        # dim_l - dim_i, with dim = nv - fixed bits
        estimate = max(bit_count(mask_i) - bit_count(mask), 1)
    partial = _PARTIAL * (1.0 - n_intruders / max(n_outsiders, 1))
    return weight * (partial - _COST * estimate)


def _injective_codes(encoding: Encoding) -> List[int]:
    if not encoding.is_injective():
        raise InvalidSpecError("the encoding gives two symbols one code")
    return [encoding.code_of(s) for s in encoding.symbols]


def satisfaction_cost_score(
    encoding: Encoding, cset: ConstraintSet
) -> float:
    """Total :func:`_constraint_score` of an injective encoding
    (higher = better)."""
    codes = dict(zip(encoding.symbols, _injective_codes(encoding)))
    space = CodeSpace(encoding.n_bits)
    occupied = code_set(codes.values())
    total = 0.0
    for c in cset.nontrivial():
        members = code_set(codes[s] for s in c.symbols)
        total += _constraint_score(
            space, space.face(members), members, occupied,
            len(c.symbols), len(codes) - len(c.symbols), c.weight,
        )
    return total


def polish_encoding(
    encoding: Encoding,
    cset: ConstraintSet,
    max_sweeps: int = 4,
) -> Encoding:
    """Hill-climb over code swaps/moves of an injective encoding;
    returns a (possibly) new encoding with at least the same weighted
    satisfaction score.

    A tried swap or move re-scores only the constraints it can change,
    each in O(1) big-int operations.  A swap keeps the occupied codes,
    so those are the constraints holding exactly one of the two
    symbols (``touch[i] ^ touch[j]``, bitmasks over constraints).  A
    move to an unused code adds those whose face holds the vacated or
    the taken code (``holders``, a bitmask per code, kept for the
    committed faces).  Both are walked low bit first, so the score
    change is summed in ascending constraint order.

    Each constraint keeps its members' code set, AND, OR and packed
    per-bit counts (:class:`_FlagFaces`), and per member the same of
    the *other* members, so a moved member refolds in O(1).  The
    occupied codes on a face (their number and packed counts) are
    cached per face for the committed occupancy; a tried move adjusts
    them for its two codes.  The intruders are then the occupied codes
    on the face less the members, and their two flag words give both
    their face's free bits and, in one lookup, its codes.
    """
    symbols = list(encoding.symbols)
    index = {s: i for i, s in enumerate(symbols)}
    nv = encoding.n_bits
    codes = _injective_codes(encoding)
    constraints = cset.nontrivial()
    if not constraints:
        return encoding

    members_idx = [
        [index[s] for s in c.symbols] for c in constraints
    ]
    weights = [c.weight for c in constraints]
    touch = [0] * len(symbols)
    for k, idxs in enumerate(members_idx):
        for i in idxs:
            touch[i] |= 1 << k
    n_members_of = [len(idxs) for idxs in members_idx]
    n_codes = len(codes)
    outsiders = [max(n_codes - n_members, 1) for n_members in n_members_of]
    flags = _FlagFaces(nv, n_codes)
    spread, some, top = flags.spread, flags.some, flags.top
    every = [flags.every(n_intruders) for n_intruders in range(n_codes)]
    table = face_table(nv)
    all_bits = (1 << nv) - 1
    occupied = code_set(codes)

    def fold(k: int) -> Tuple[Tuple[int, int, int, int],
                              Dict[int, Tuple[int, int, int]]]:
        """Constraint ``k``'s members at ``codes``: their code set, AND,
        OR and packed counts, and per member the AND, OR and counts of
        the *other* members' codes."""
        members = twos = zeros2 = hi = count = 0
        lo = all_bits
        for m in members_idx[k]:
            code = codes[m]
            members |= 1 << code
            twos |= hi & code  # bits set in two or more codes
            zeros2 |= ~(lo | code)  # bits clear in two or more codes
            lo &= code
            hi |= code
            count += spread[code]
        return (members, lo, hi, count), {
            m: (lo | all_bits & ~(codes[m] | zeros2), twos | hi & ~codes[m],
                count - spread[codes[m]])
            for m in members_idx[k]
        }

    #: face key ``lo << nv | hi`` -> (its codes, the number and packed
    #: counts of the occupied ones), for the committed occupancy
    on_face: Dict[int, Tuple[int, int, int]] = {}

    def occupancy(key: int) -> Tuple[int, int, int]:
        on = table[key]
        here = on & occupied
        entry = on_face[key] = (on, bit_count(here), flags.count(here))
        return entry

    folds, rests = map(list, zip(*map(fold, range(len(constraints)))))
    faces = [0] * len(constraints)
    scores = [0.0] * len(constraints)
    holders = [0] * (1 << nv)

    def gain(
        walk: int, i: int, j: int, moved: int,
        vacated: int = 0, taken: int = 0, store: bool = False,
    ) -> float:
        """Score change of the constraints in bitmask ``walk`` once
        symbol ``i`` (``-1``: none) and, for a swap, ``j`` have taken
        their new ``codes``, flipping the code sets at ``moved``.  A
        move to an unused code passes its ``vacated`` and ``taken``
        code as bits.  ``store`` commits the new faces and scores.

        :func:`_constraint_score` inlined: the members' face comes
        from ``table``, the intruders' from ``flags``."""
        delta = 0.0
        mine = touch[i] if i >= 0 else 0
        if vacated:
            out_step = spread[vacated.bit_length() - 1]
            in_step = spread[taken.bit_length() - 1]
        while walk:
            low = walk & -walk
            walk ^= low
            k = low.bit_length() - 1
            s = i if mine & low else j
            members, lo, hi, count = folds[k]
            if s >= 0:
                code = codes[s]
                rest_lo, rest_hi, rest_count = rests[k][s]
                members ^= moved
                lo = rest_lo & code
                hi = rest_hi | code
                count = rest_count + spread[code]
            key = lo << nv | hi
            on, n_occupied, occupied_count = (
                on_face.get(key) or occupancy(key)
            )
            if on & vacated:
                n_occupied -= 1
                occupied_count -= out_step
            if on & taken:
                n_occupied += 1
                occupied_count += in_step
            n_members = n_members_of[k]
            n_intruders = n_occupied - n_members
            if not n_intruders:
                score = weights[k] * (1.0 - _COST)
            else:
                left = occupied_count - count
                some_has = left + some & top
                all_have = left + every[n_intruders] & top
                if flags[some_has + all_have] & members:
                    # min(1 + n_intruders, n_members), without a call
                    estimate = (
                        1 + n_intruders if n_intruders < n_members
                        else n_members
                    )
                else:
                    # dim_l - dim_i: the members' face has lo ^ hi free
                    # bits, the intruders' one per field some but not
                    # every intruder sets
                    estimate = max(
                        bit_count(lo ^ hi) - bit_count(some_has ^ all_have),
                        1,
                    )
                partial = _PARTIAL * (1.0 - n_intruders / outsiders[k])
                score = weights[k] * (partial - _COST * estimate)
            delta += score - scores[k]
            if store:
                scores[k] = score
                stale = faces[k] ^ on
                faces[k] = on
                while stale:
                    bit = stale & -stale
                    stale ^= bit
                    holders[bit.bit_length() - 1] ^= low
        return delta

    def refold(ks: int) -> None:
        while ks:
            low = ks & -ks
            ks ^= low
            k = low.bit_length() - 1
            folds[k], rests[k] = fold(k)

    gain((1 << len(constraints)) - 1, -1, -1, 0, store=True)
    unused = [c for c in range(1 << nv) if not occupied >> c & 1]

    n = len(symbols)
    for _ in range(max_sweeps):
        improved = False
        # pair swaps where at least one side touches a constraint; a
        # swap keeps the occupied codes, so only constraints holding
        # exactly one of the two change (none: no gain)
        for i in range(n):
            mine = touch[i]
            for j in range(i + 1, n):
                walk = mine ^ touch[j]
                if not walk:
                    continue
                old_i, old_j = codes[i], codes[j]
                codes[i], codes[j] = old_j, old_i
                moved = 1 << old_i | 1 << old_j
                if gain(walk, i, j, moved) > 1e-9:
                    gain(walk, i, j, moved, store=True)
                    improved = True
                    # a constraint holding both keeps its code set,
                    # but its leave-one-out folds have gone stale
                    refold(mine | touch[j])
                else:
                    codes[i], codes[j] = old_i, old_j
        # moves to unused codes
        for i in range(n):
            mine = touch[i]
            if not mine:
                continue
            for slot in range(len(unused)):
                old_code = codes[i]
                codes[i] = unused[slot]
                vacated, taken = 1 << old_code, 1 << codes[i]
                moved = vacated | taken
                walk = mine | holders[old_code] | holders[codes[i]]
                if gain(walk, i, -1, moved, vacated, taken) > 1e-9:
                    gain(walk, i, -1, moved, vacated, taken, store=True)
                    unused[slot] = old_code
                    improved = True
                    occupied ^= moved
                    on_face.clear()
                    refold(mine)
                else:
                    codes[i] = old_code
        if not improved:
            break
    return Encoding.from_code_list(symbols, codes, nv)
