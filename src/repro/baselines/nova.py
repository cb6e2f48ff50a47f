"""A NOVA-style baseline encoder (Villa & Sangiovanni-Vincentelli 1990).

NOVA attacks minimum-length input encoding by *maximizing the weighted
number of satisfied face constraints*: a greedy constraint-oriented
face embedding builds a seed encoding, then a hybrid
iterative-improvement phase (seeded annealing over code swaps/moves)
polishes it.  This module re-implements that strategy:

* ``variant="i_greedy"``  — greedy face placement only,
* ``variant="i_hybrid"``  — greedy + annealing on the input-constraint
  gain (NOVA's ``-e ih``),
* ``variant="io_hybrid"`` — same, plus output-oriented gains from a
  state-affinity matrix (NOVA's ``-e ioh``): pairs of states with
  common fan-out/fan-in earn a bonus for near-adjacent codes.

Exactly the objective the paper criticizes: satisfied-constraint
counting says nothing about how *violated* constraints will be
implemented, which is where PICOLA's guide constraints win.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, compress
from operator import add
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cubes.bulk import bit_count
from ..encoding.codes import (
    CodeSpace,
    Encoding,
    _FlagFaces,
    code_set,
    face_table,
)
from ..encoding.constraints import ConstraintSet, FaceConstraint
from ..obs import resolve_tracer
from ..runtime import Budget, InfeasibleError, InvalidSpecError, faults

__all__ = ["NovaResult", "nova_encode", "state_affinity"]


@dataclass
class NovaResult:
    encoding: Encoding
    objective: float
    satisfied: int
    variant: str


def nova_encode(
    cset: ConstraintSet,
    *,
    nv: Optional[int] = None,
    variant: str = "i_hybrid",
    affinity: Optional[Mapping[Tuple[str, str], float]] = None,
    seed: int = 0,
    anneal_moves: int = 4000,
    budget: Optional[Budget] = None,
    tracer=None,
) -> NovaResult:
    """Encode with the NOVA-style objective; deterministic per seed."""
    if variant not in ("i_greedy", "i_hybrid", "io_hybrid"):
        raise InvalidSpecError(f"unknown NOVA variant {variant!r}")
    if variant == "io_hybrid" and affinity is None:
        affinity = {}
    tracer = resolve_tracer(tracer)
    symbols = list(cset.symbols)
    if nv is None:
        nv = cset.min_code_length()
    if (1 << nv) < len(symbols):
        raise InfeasibleError("code length too small")
    rng = random.Random(seed)
    constraints = cset.nontrivial()

    with tracer.span(
        "nova/encode", symbols=len(symbols), nv=nv, variant=variant
    ):
        with tracer.span("nova/greedy"):
            codes = _greedy_placement(symbols, constraints, nv, rng)
        if variant != "i_greedy":
            with tracer.span("nova/anneal", moves=anneal_moves):
                codes = _anneal(
                    symbols, constraints, codes, nv, rng,
                    affinity if variant == "io_hybrid" else None,
                    anneal_moves, budget, tracer,
                )
    enc = Encoding(symbols, codes, nv)
    sat = sum(1 for c in constraints if enc.satisfies(c.symbols))
    return NovaResult(
        encoding=enc,
        objective=_objective(symbols, constraints, codes, nv,
                             affinity if variant == "io_hybrid" else None),
        satisfied=sat,
        variant=variant,
    )


# ----------------------------------------------------------------------
# phase 1: greedy constraint-oriented face placement
# ----------------------------------------------------------------------
def _faces(nv: int, dim: int) -> List[Tuple[int, int]]:
    """All (mask, value) faces of the given dimension."""
    out: List[Tuple[int, int]] = []
    positions = list(range(nv))
    for fixed in combinations(positions, nv - dim):
        mask = 0
        for p in fixed:
            mask |= 1 << p
        # enumerate all values on the fixed positions
        value = 0
        while True:
            out.append((mask, value))
            if value == mask:
                break
            value = (value - mask) & mask  # next subset of mask
    return out


def _greedy_placement(
    symbols: Sequence[str],
    constraints: Sequence[FaceConstraint],
    nv: int,
    rng: random.Random,
) -> Dict[str, int]:
    codes: Dict[str, int] = {}
    free = set(range(1 << nv))
    order = sorted(
        constraints,
        key=lambda c: (-c.weight, len(c.symbols), sorted(c.symbols)),
    )
    for constraint in order:
        members = sorted(constraint.symbols)
        assigned = [s for s in members if s in codes]
        unassigned = [s for s in members if s not in codes]
        if not unassigned:
            continue
        dim = (len(members) - 1).bit_length()
        placed = False
        while dim <= nv and not placed:
            placed = _try_place_on_face(
                codes, free, members, assigned, unassigned, nv, dim
            )
            dim += 1
        # when no face fits, the members fall through to the leftover
        # assignment below
    # leftovers
    for s in symbols:
        if s not in codes:
            codes[s] = min(free)
            free.discard(codes[s])
    return codes


def _try_place_on_face(
    codes: Dict[str, int],
    free: set,
    members: Sequence[str],
    assigned: Sequence[str],
    unassigned: Sequence[str],
    nv: int,
    dim: int,
) -> bool:
    table = face_table(nv)
    all_bits = (1 << nv) - 1
    best_face = None
    best_free = -1
    for mask, value in _faces(nv, dim):
        if any((codes[s] ^ value) & mask for s in assigned):
            continue
        # the face's codes from the table, in ascending order
        face = table[value << nv | value | all_bits & ~mask]
        free_here = []
        while face:
            low = face & -face
            code = low.bit_length() - 1
            if code in free:
                free_here.append(code)
            face ^= low
        if len(free_here) < len(unassigned):
            continue
        # prefer tight faces with few leftover holes
        score = -len(free_here)
        if best_face is None or score > best_free:
            best_face = free_here
            best_free = score
    if best_face is None:
        return False
    for s, c in zip(unassigned, best_face):
        codes[s] = c
        free.discard(c)
    return True


# ----------------------------------------------------------------------
# phase 2: hybrid improvement (seeded annealing)
# ----------------------------------------------------------------------
def _objective(
    symbols: Sequence[str],
    constraints: Sequence[FaceConstraint],
    codes: Mapping[str, int],
    nv: int,
    affinity: Optional[Mapping[Tuple[str, str], float]],
) -> float:
    """Weighted satisfied constraints plus, for ``io_hybrid``, the
    affinity bonus of near-adjacent codes.

    A constraint is satisfied when no other symbol's code lies on the
    face its members span: with code sets as bitmasks, the face's
    codes (:class:`CodeSpace`) hold no occupied code outside the
    members.  The test relies on injective codes, which greedy
    placement and the anneal's moves both keep.
    """
    space = CodeSpace(nv)
    occupied = code_set(codes.values())
    total = 0.0
    for c in constraints:
        members = code_set(codes[s] for s in c.symbols)
        if not space.face(members)[1] & occupied & ~members:
            total += c.weight
    if affinity:
        for (a, b), w in affinity.items():
            total += _affinity_term(w, codes[a], codes[b], nv)
    return total


def _affinity_term(w: float, code_a: int, code_b: int, nv: int) -> float:
    dist = bit_count(code_a ^ code_b)
    return w * (nv - dist) / (4.0 * nv)


def _anneal(
    symbols: Sequence[str],
    constraints: Sequence[FaceConstraint],
    codes: Dict[str, int],
    nv: int,
    rng: random.Random,
    affinity: Optional[Mapping[Tuple[str, str], float]],
    moves: int,
    budget: Optional[Budget] = None,
    tracer=None,
) -> Dict[str, int]:
    """Seeded annealing over code swaps and moves to unused codes.

    Each constraint keeps its member codes, face codes, satisfied flag
    and per-bit member counts, and each affinity pair its term, across
    moves.  A move re-scores only what it can change: the constraints
    holding exactly one of the two swapped symbols (a swap keeps the
    occupied codes), or, on a move to an unused code, those holding
    the moved symbol plus those whose face holds the vacated or the
    taken code.  The candidate objective is then summed from the
    cached values in :func:`_objective`'s order, so it equals
    ``_objective`` exactly.

    Symbols are their positions in ``symbols``: codes are a list, the
    owner of each code a list of ``2 ** nv`` entries (-1 for a free
    code), and the constraints holding a symbol a bitmask over
    constraint indices.  A move's two draws are
    ``rng.randrange(len(symbols))`` and ``rng.randrange(2 ** nv)``,
    made with the ``getrandbits`` rejection loop that ``randrange``
    runs for a ``random.Random``, so the stream is the same.

    Moving one member from code ``a`` to ``b`` re-scores a constraint
    in O(1), whatever its size.  Its members' per-bit counts are packed
    in one int (:class:`_FlagFaces`), so they move by ``spread[b] -
    spread[a]``, and their two flag words give the face in one
    ``_FlagFaces`` lookup.
    """
    tracer = resolve_tracer(tracer)
    n = len(symbols)
    if not n and moves:  # no symbol to draw
        raise InvalidSpecError("NOVA's anneal needs at least one symbol")
    position = {s: i for i, s in enumerate(symbols)}
    codes = [codes[s] for s in symbols]
    size = 1 << nv
    lookup = _FlagFaces(nv, max(map(len, constraints), default=1))
    spread, some, top = lookup.spread, lookup.some, lookup.top
    every = [lookup.every(len(c)) for c in constraints]
    owner_of = [-1] * size
    for i, code in enumerate(codes):
        owner_of[code] = i
    occupied = code_set(codes)
    weights = [c.weight for c in constraints]
    member_pos = [[position[s] for s in c.symbols] for c in constraints]
    members = [code_set(codes[i] for i in ms) for ms in member_pos]
    counts = [lookup.count(m) for m in members]
    faces = [lookup[(c + some & top) + (c + e & top)]
             for c, e in zip(counts, every)]
    sat = [f & occupied == m for f, m in zip(faces, members)]
    touching = [0] * n
    for k, ms in enumerate(member_pos):
        for i in ms:
            touching[i] |= 1 << k
    pairs = [(position[a], position[b], w)
             for (a, b), w in (affinity or {}).items()]
    terms = [_affinity_term(w, codes[a], codes[b], nv) for a, b, w in pairs]
    pairs_of: List[List[int]] = [[] for _ in symbols]
    for p, (a, b, _) in enumerate(pairs):
        pairs_of[a].append(p)
        pairs_of[b].append(p)
    # plain left-to-right float additions, as _objective's ``+=``;
    # sum() may compensate and round differently
    satisfied_total = reduce(add, compress(weights, sat), 0.0)
    current = reduce(add, terms, satisfied_total)
    best = list(codes)
    best_obj = current
    getrandbits = rng.getrandbits
    n_bits = n.bit_length()
    size_bits = size.bit_length()
    temperature = max(1.0, len(constraints) / 4.0)
    cooling = 0.995 if moves else 1.0
    attempted = 0
    accepted = 0
    try:
        for _ in range(moves):
            faults.trip("nova.move")
            if budget is not None:
                budget.tick(where="nova_encode")
            attempted += 1
            s = getrandbits(n_bits)
            while s >= n:
                s = getrandbits(n_bits)
            target = getrandbits(size_bits)
            while target >= size:
                target = getrandbits(size_bits)
            owner = owner_of[target]
            if owner == s:
                continue
            old_s = codes[s]
            codes[s] = target
            moved = 1 << old_s | 1 << target
            step = spread[target] - spread[old_s]
            if owner >= 0:
                codes[owner] = old_s
                new_occupied = occupied
                mine, theirs = touching[s], touching[owner]
                shifts = ((mine & ~theirs, step), (theirs & ~mine, -step))
                rechecked: List[int] = []
                moved_pairs = pairs_of[s] + pairs_of[owner]
            else:
                new_occupied = occupied ^ moved
                mine = touching[s]
                shifts = ((mine, step),)
                rechecked = [
                    k for k, f in enumerate(faces)
                    if f & moved and not mine >> k & 1
                ]
                moved_pairs = pairs_of[s]
            updates = []
            flips = []
            for rescored, shift in shifts:
                while rescored:
                    low = rescored & -rescored
                    rescored ^= low
                    k = low.bit_length() - 1
                    c = counts[k] + shift
                    m = members[k] ^ moved
                    f = lookup[(c + some & top) + (c + every[k] & top)]
                    updates.append((k, m, f, c))
                    if sat[k] != (f & new_occupied == m):
                        flips.append(k)
            for k in rechecked:
                if sat[k] != (faces[k] & new_occupied == members[k]):
                    flips.append(k)
            for k in flips:
                sat[k] = not sat[k]
            candidate_satisfied = (
                reduce(add, compress(weights, sat), 0.0)
                if flips else satisfied_total
            )
            candidate = candidate_satisfied
            old_terms = ()
            if pairs:
                old_terms = [(p, terms[p]) for p in moved_pairs]
                for p, _ in old_terms:
                    a, b, w = pairs[p]
                    terms[p] = _affinity_term(w, codes[a], codes[b], nv)
                candidate = reduce(add, terms, candidate_satisfied)
            delta = candidate - current
            if delta >= 0 or rng.random() < math.exp(
                delta / temperature
            ):
                accepted += 1
                current = candidate
                satisfied_total = candidate_satisfied
                occupied = new_occupied
                for k, m, f, c in updates:
                    members[k] = m
                    faces[k] = f
                    counts[k] = c
                owner_of[target] = s
                owner_of[old_s] = owner
                if current > best_obj:
                    best_obj = current
                    best = list(codes)
            else:
                codes[s] = old_s
                if owner >= 0:
                    codes[owner] = target
                for k in flips:
                    sat[k] = not sat[k]
                for p, term in old_terms:
                    terms[p] = term
            temperature = max(temperature * cooling, 0.05)
    finally:
        tracer.count("nova.moves", attempted)
        tracer.count("nova.accepted", accepted)
        tracer.gauge("nova.objective", best_obj)
    return dict(zip(symbols, best))


# ----------------------------------------------------------------------
# output-oriented affinity for io_hybrid
# ----------------------------------------------------------------------
def state_affinity(fsm) -> Dict[Tuple[str, str], float]:
    """Pairwise state affinity from common fan-out and fan-in.

    Two states earn weight for transitions that target the same next
    state (their next-state code bits can share cubes) and for
    asserting the same outputs — NOVA's output-oriented gains.
    """
    states = fsm.states
    fanout: Dict[str, Dict[str, int]] = {s: {} for s in states}
    outbits: Dict[str, Dict[int, int]] = {s: {} for s in states}
    for t in fsm.transitions:
        if t.present == "*":
            continue
        if t.next != "*":
            fanout[t.present][t.next] = fanout[t.present].get(t.next, 0) + 1
        for i, ch in enumerate(t.outputs):
            if ch == "1":
                outbits[t.present][i] = outbits[t.present].get(i, 0) + 1
    result: Dict[Tuple[str, str], float] = {}
    for i, a in enumerate(states):
        for b in states[i + 1 :]:
            w = 0.0
            for nxt, ca in fanout[a].items():
                cb = fanout[b].get(nxt)
                if cb:
                    w += min(ca, cb)
            for bit, ca in outbits[a].items():
                cb = outbits[b].get(bit)
                if cb:
                    w += 0.5 * min(ca, cb)
            if w:
                result[(a, b)] = w
    return result
