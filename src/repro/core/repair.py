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
from ..encoding.codes import CodeSpace, Encoding, code_set, face_table
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
    satisfaction score."""
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
    touching: List[List[int]] = [[] for _ in symbols]
    for k, idxs in enumerate(members_idx):
        for i in idxs:
            touching[i].append(k)
    touching_sets = [frozenset(ks) for ks in touching]
    n_members_of = [len(idxs) for idxs in members_idx]
    n_codes = len(codes)
    space = CodeSpace(nv)
    table = face_table(nv)
    all_bits = (1 << nv) - 1
    occupied = code_set(codes)

    def fold(k: int) -> Tuple[Tuple[int, int, int], Dict[int, Tuple[int, int]]]:
        """Constraint ``k``'s members at ``codes``: their code set, AND
        and OR, and per member the AND/OR of the *other* members'
        codes, so a tried move scores ``k`` without a loop over its
        members."""
        members = twos = zeros2 = hi = 0
        lo = all_bits
        for m in members_idx[k]:
            code = codes[m]
            members |= 1 << code
            twos |= hi & code  # bits set in two or more codes
            zeros2 |= ~(lo | code)  # bits clear in two or more codes
            lo &= code
            hi |= code
        return (members, lo, hi), {
            m: (lo | all_bits & ~(codes[m] | zeros2), twos | hi & ~codes[m])
            for m in members_idx[k]
        }

    def score(k: int, members: int, lo: int, hi: int) -> Tuple[int, float]:
        """(codes on constraint ``k``'s face, its score) for member
        code set ``members`` with AND ``lo`` and OR ``hi``:
        :func:`_constraint_score` inlined, with the members' face
        looked up in ``table``."""
        on = table[lo << nv | hi]
        weight = weights[k]
        intruders = on & occupied & ~members
        if not intruders:
            return on, weight * (1.0 - _COST)
        n_members = n_members_of[k]
        n_intruders = bit_count(intruders)
        mask_i, on_i = space.face(intruders)
        if on_i & members:
            estimate = min(1 + n_intruders, n_members)
        else:
            # dim_l - dim_i; the members' face has lo ^ hi free bits
            estimate = max(bit_count(lo ^ hi) - (nv - bit_count(mask_i)), 1)
        partial = _PARTIAL * (
            1.0 - n_intruders / max(n_codes - n_members, 1)
        )
        return on, weight * (partial - _COST * estimate)

    def rescore(k: int, s: int, flip: int) -> Tuple[int, float]:
        """:func:`score` of constraint ``k`` once its member ``s`` has
        moved to ``codes[s]``, flipping the code set at ``flip``."""
        code = codes[s]
        rest_lo, rest_hi = rests[k][s]
        return score(k, folds[k][0] ^ flip, rest_lo & code, rest_hi | code)

    def held(k: int) -> Tuple[int, float]:
        """:func:`score` of constraint ``k`` at its cached fold."""
        return score(k, *folds[k])

    folds, rests = map(list, zip(*map(fold, range(len(constraints)))))
    faces, scores = map(list, zip(*map(held, range(len(constraints)))))
    unused = [c for c in range(1 << nv) if not occupied >> c & 1]

    def affected(i: int, old_code: int) -> List[int]:
        """Constraints whose score can change when symbol ``i`` moves
        from ``old_code`` to an unused code."""
        ks = set(touching[i])
        # constraints whose face contains a moved code can gain/lose
        # an intruder even when ``i`` is not a member; their members
        # did not move, so their face is still faces[k]
        moved = 1 << old_code | 1 << codes[i]
        for k in range(len(constraints)):
            if k not in ks and faces[k] & moved:
                ks.add(k)
        return sorted(ks)

    def try_move(new: Dict[int, Tuple[int, float]]) -> bool:
        """Keep the move if the new scores ``new`` gain in total."""
        delta = 0.0
        for k, (_, score_k) in new.items():
            delta += score_k - scores[k]
        if delta <= 1e-9:
            return False
        for k, (face, score_k) in new.items():
            faces[k] = face
            scores[k] = score_k
        return True

    n = len(symbols)
    for _ in range(max_sweeps):
        improved = False
        # pair swaps where at least one side touches a constraint
        for i in range(n):
            for j in range(i + 1, n):
                if not touching[i] and not touching[j]:
                    continue
                old = (codes[i], codes[j])
                flip = 1 << codes[i] | 1 << codes[j]
                codes[i], codes[j] = codes[j], codes[i]
                # a swap keeps the occupied codes, so only constraints
                # holding exactly one of the two change their members
                in_i = touching_sets[i]
                if try_move({
                    k: rescore(k, i if k in in_i else j, flip)
                    for k in sorted(in_i ^ touching_sets[j])
                }):
                    improved = True
                    # a constraint holding both keeps its code set,
                    # but its leave-one-out folds have gone stale
                    for k in in_i | touching_sets[j]:
                        folds[k], rests[k] = fold(k)
                else:
                    codes[i], codes[j] = old
        # moves to unused codes
        for i in range(n):
            if not touching[i]:
                continue
            in_i = touching_sets[i]
            for slot in range(len(unused)):
                old_code = codes[i]
                codes[i] = unused[slot]
                flip = 1 << old_code | 1 << codes[i]
                occupied ^= flip
                if try_move({
                    k: rescore(k, i, flip) if k in in_i else held(k)
                    for k in affected(i, old_code)
                }):
                    unused[slot] = old_code
                    improved = True
                    for k in touching[i]:
                        folds[k], rests[k] = fold(k)
                else:
                    codes[i] = old_code
                    occupied ^= flip
        if not improved:
            break
    return Encoding.from_code_list(symbols, codes, nv)
