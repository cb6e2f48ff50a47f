"""Exact minimum-length encoding by branch and bound.

For small symbol sets this finds an encoding that provably maximizes
the weighted number of satisfied face constraints at minimum code
length (with total Theorem-I-style implementation cost as an optional
secondary objective).  It serves as the optimality reference for
PICOLA and the baselines in tests and ablations; the search is
exponential and guarded by a node budget.

The branch and bound assigns codes to symbols one at a time in a
constraint-aware order.  Pruning uses an admissible bound: a
constraint counts as "still satisfiable" while the face spanned by its
already-placed members, inflated to the constraint's minimum
dimension, can avoid every already-placed outsider.

Symmetry breaking: the first symbol is pinned to code 0 and each new
code may exceed the largest used code by at most one bit pattern class
(codes are explored in numeric order and a fresh code is only taken
once per equivalence step), which collapses the 2^nv! column
symmetries dramatically without losing optimality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..obs import resolve_tracer
from ..runtime import (
    Budget,
    BudgetExceeded,
    InfeasibleError,
    SolverTimeout,
    faults,
)
from .codes import Encoding, face_of
from .constraints import ConstraintSet, FaceConstraint

__all__ = ["ExactEncodingResult", "exact_encode", "ExactSearchBudget"]


class ExactSearchBudget(BudgetExceeded):
    """The node budget ran out before the search completed."""


@dataclass
class ExactEncodingResult:
    encoding: Encoding
    satisfied_weight: float
    satisfied: int
    nodes: int
    optimal: bool


def _constraint_possible(
    members_placed: List[int],
    outsiders_placed: List[int],
    min_dim: int,
    nv: int,
) -> bool:
    """Admissible test: can the constraint still end up satisfied?

    Every final face contains the supercube of the already-placed
    members, so a placed outsider *inside* that supercube kills the
    constraint in every completion — that is the only rejection this
    bound is allowed to make (optimism keeps the branch-and-bound
    exact).
    """
    if not members_placed:
        return True
    mask, value = face_of(members_placed, nv)
    for code in outsiders_placed:
        if not (code ^ value) & mask:
            return False
    return True


def exact_encode(
    cset: ConstraintSet,
    *,
    nv: Optional[int] = None,
    max_nodes: int = 2_000_000,
    strict: bool = False,
    budget: Optional[Budget] = None,
    tracer=None,
) -> ExactEncodingResult:
    """Provably maximize weighted satisfied constraints at length nv.

    ``strict=True`` raises :class:`ExactSearchBudget` when the node
    budget runs out; otherwise the best encoding found so far is
    returned with ``optimal=False``.  An external :class:`Budget`
    (wall-clock deadline and/or shared node counter) is checked at
    every search node; in non-strict mode its exhaustion also degrades
    to best-so-far once a complete assignment exists.  ``tracer``
    records a ``exact/search`` span and the node count.
    """
    tracer = resolve_tracer(tracer)
    symbols = list(cset.symbols)
    n = len(symbols)
    if nv is None:
        nv = cset.min_code_length()
    if (1 << nv) < n:
        raise InfeasibleError("code length too small")
    constraints = cset.nontrivial()
    weights = [c.weight for c in constraints]
    min_dims = [c.min_dimension() for c in constraints]
    member_sets = [c.symbols for c in constraints]

    # order symbols by how many constraints they touch (most first)
    def touch(s: str) -> int:
        return sum(1 for ms in member_sets if s in ms)

    order = sorted(symbols, key=lambda s: (-touch(s), s))

    best_codes: Optional[Dict[str, int]] = None
    best_weight = -1.0
    nodes = 0
    budget_hit = False

    placed: Dict[str, int] = {}
    used: Set[int] = set()

    def upper_bound() -> float:
        total = 0.0
        for k, ms in enumerate(member_sets):
            members_placed = [placed[s] for s in ms if s in placed]
            outsiders_placed = [
                c for s, c in placed.items() if s not in ms
            ]
            if _constraint_possible(
                members_placed, outsiders_placed, min_dims[k], nv
            ):
                total += weights[k]
        return total

    def realized() -> float:
        total = 0.0
        for k, ms in enumerate(member_sets):
            mask, value = face_of((placed[s] for s in ms), nv)
            if all(
                (code ^ value) & mask
                for s, code in placed.items()
                if s not in ms
            ):
                total += weights[k]
        return total

    def search(idx: int) -> None:
        nonlocal best_codes, best_weight, nodes, budget_hit
        if budget_hit:
            return
        nodes += 1
        faults.trip("exact.node")
        if budget is not None:
            budget.tick(where="exact_encode")
        if nodes > max_nodes:
            budget_hit = True
            return
        if idx == n:
            weight = realized()
            if weight > best_weight:
                best_weight = weight
                best_codes = dict(placed)
            return
        if upper_bound() <= best_weight:
            return
        symbol = order[idx]
        fresh_taken = False
        max_used = max(used) if used else -1
        for code in range(1 << nv):
            if code in used:
                continue
            if code > max_used:
                # all unused codes above the frontier are symmetric
                # under relabeling only for the very first placement;
                # beyond that, bit positions already matter.  Pin the
                # first symbol to code 0 as the safe canonical cut.
                if idx == 0 and fresh_taken:
                    break
                fresh_taken = True
            placed[symbol] = code
            used.add(code)
            search(idx + 1)
            used.discard(code)
            del placed[symbol]
        return

    try:
        with tracer.span(
            "exact/search", symbols=n, nv=nv, max_nodes=max_nodes
        ):
            try:
                search(0)
            finally:
                tracer.count("exact.nodes", nodes)
                tracer.gauge("exact.best_weight", best_weight)
    except (SolverTimeout, BudgetExceeded):
        # external budget/deadline: degrade to best-so-far unless the
        # caller demanded a provably optimal answer
        if strict or best_codes is None:
            raise
        budget_hit = True
    if best_codes is None:
        raise ExactSearchBudget("no complete assignment explored")
    if budget_hit and strict:
        raise ExactSearchBudget(f"exceeded {max_nodes} nodes")
    encoding = Encoding(symbols, best_codes, nv)
    satisfied = sum(
        1 for c in constraints if encoding.satisfies(c.symbols)
    )
    return ExactEncodingResult(
        encoding=encoding,
        satisfied_weight=best_weight,
        satisfied=satisfied,
        nodes=nodes,
        optimal=not budget_hit,
    )
