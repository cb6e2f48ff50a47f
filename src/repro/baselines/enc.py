"""An ENC-style baseline (Saldanha, Villa, Brayton, S-V, TCAD 1994).

ENC targets the same *partial* encoding problem as PICOLA — minimize
the product terms implementing the complete constraint set — but does
it by keeping the two-level logic minimizer in its inner loop: from a
seed encoding it repeatedly tries code swaps/moves, re-minimizes the
encoded constraints, and keeps any move that lowers the real cube
count.  The run time is dominated by the O(moves x constraints)
minimizations — the paper's observation that "ENC is not practical
for medium and large examples" (and is reported to fail on ``scf``)
falls straight out of this structure.  Table I runs it to a local
optimum and reports that cost; a minimization budget, when set,
marks a row whose search it cuts short as ``fails``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..encoding.codes import Encoding, face_table
from ..encoding.constraints import ConstraintSet
from ..encoding.evaluate import cubes_for_codes
from ..obs import resolve_tracer
from ..runtime import Budget, BudgetExceeded, faults
from .simple import natural_encoding

__all__ = ["EncResult", "EncBudgetExceeded", "enc_encode"]


class EncBudgetExceeded(BudgetExceeded):
    """The minimization budget ran out before reaching a local optimum.

    Mirrors the failure the paper reports for ENC on the largest
    benchmark (scf).
    """


@dataclass
class EncResult:
    encoding: Encoding
    total_cubes: int
    minimizations: int
    converged: bool


def cover_lower_bound(nv: int, onset: Sequence[int], used: int) -> int:
    """Fewest cubes any valid cover of a constraint function can have.

    The function's on-set is ``onset`` and its off-set the other
    ``used`` codes; every other code is a don't-care.  One cube
    suffices iff the members' face misses the off-set.  Otherwise no
    cube holds two members whose own face meets the off-set (it would
    hold their face too), so members that are pairwise so, picked
    greedily by code, need a cube each.  The bound holds for the exact
    minimizer and espresso alike, and depends only on the code set,
    never on the onset's order.
    """
    faces = face_table(nv)
    members = 0
    lo = hi = onset[0]
    for code in onset:
        members |= 1 << code
        lo &= code
        hi |= code
    off = used & ~members
    if not faces[lo << nv | hi] & off:
        return 1
    picked: List[int] = []
    for code in sorted(onset):
        for other in picked:
            if not faces[(code & other) << nv | code | other] & off:
                break
        else:
            picked.append(code)
    return max(2, len(picked))


class _Scorer:
    """Per-run constraint scoring for ENC's search.

    Every constraint scored is a *logical* evaluation: it counts
    against ``max_minimizations`` and ticks the external budget, and
    each scored encoding trips the ``enc.minimize`` fault site once,
    with the counts and the raise point of a plain loop over the
    constraints.  Only the real minimizations are saved, two ways:

    * Each constraint is looked up in a memo keyed by its function:
      one ``int`` packing the bitmask of its member codes above the
      bitmask of unused codes.  The key holds no onset order: up to
      :data:`~repro.espresso.truthtable.MAX_VARS` bits,
      :func:`cubes_for_codes` counts the minimum cover, which does
      not depend on it.  (Above that, espresso's count might; the
      memo then keeps the count of the first order it saw.)
    * A memo miss first counts as a lower bound on the cubes of any
      valid cover of its function (:func:`cover_lower_bound`), and is
      minimized only while the total could still fall below the
      ``bound`` the search must beat.  A move that provably cannot is
      rejected with its remaining misses unminimized; once the
      running sum reaches the bound, the constraints after it are not
      even looked up.
    """

    def __init__(
        self,
        cset: ConstraintSet,
        nv: int,
        max_minimizations: int,
        budget: Optional[Budget],
        tracer,
    ) -> None:
        self.nv = nv
        self.size = 1 << nv
        self.full = (1 << self.size) - 1
        self.constraints = [
            tuple(sorted(c.symbols)) for c in cset.nontrivial()
        ]
        self.max_minimizations = max_minimizations
        self.budget = budget
        self.tracer = tracer
        self.memo: Dict[int, int] = {}
        self.minimizations = 0
        self.hits = 0
        self.misses = 0
        self.bounded = 0

    def _total(
        self, codes: Dict[str, int], bound: Optional[int]
    ) -> Optional[int]:
        """Total cubes of ``codes`` if below ``bound``, else ``None``."""
        used = 0
        for code in codes.values():
            used |= 1 << code
        unused = self.full & ~used
        # every constraint needs a cube; each one looked up raises the
        # total by the rest of its count, or of its bound on a miss
        total = len(self.constraints)
        misses: List[Tuple[int, List[int], int]] = []
        for i, members in enumerate(self.constraints):
            onset = [codes[s] for s in members]
            key = 0
            for code in onset:
                key |= 1 << code
            key = key << self.size | unused
            cubes = self.memo.get(key)
            if cubes is None:
                cubes = cover_lower_bound(self.nv, onset, used)
                misses.append((key, onset, cubes))
            else:
                self.hits += 1
            total += cubes - 1
            if bound is not None and total >= bound:
                self.bounded += len(self.constraints) - i - 1 + len(misses)
                return None
        # each miss's bound is replaced by its real count, while the
        # total can still fall below the bound
        for n, (key, onset, low) in enumerate(misses, 1):
            self.misses += 1
            cubes = self.memo[key] = cubes_for_codes(
                self.nv, onset, unused, tracer=self.tracer
            )
            total += cubes - low
            if bound is not None and total >= bound:
                self.bounded += len(misses) - n
                return None
        return total

    def score(
        self, codes: Dict[str, int], bound: Optional[int] = None
    ) -> Optional[int]:
        """Total cubes of ``codes``, or ``None`` if it is not below
        ``bound``; one logical evaluation per constraint.

        The evaluations are charged before any is looked up.  When a
        budget runs out, the encoding is abandoned and its charged
        evaluations count as settled without a minimization.
        """
        faults.trip("enc.minimize")
        start = self.minimizations
        try:
            for _ in self.constraints:
                self.minimizations += 1
                if self.minimizations > self.max_minimizations:
                    raise EncBudgetExceeded(
                        f"exceeded {self.max_minimizations} constraint "
                        "minimizations"
                    )
                if self.budget is not None:
                    self.budget.tick(where="enc_encode")
        except BudgetExceeded:
            self.bounded += self.minimizations - start
            raise
        return self._total(codes, bound)

    def uncounted(self, codes: Dict[str, int]) -> Optional[int]:
        """Total cubes of ``codes``, outside the budget."""
        return self._total(codes, None)


def enc_encode(
    cset: ConstraintSet,
    nv: Optional[int] = None,
    *,
    seed: int = 0,
    max_minimizations: int = 20000,
    max_passes: int = 8,
    strict: bool = False,
    budget: Optional[Budget] = None,
    tracer=None,
) -> EncResult:
    """Iterative minimizer-in-the-loop encoding.

    ``strict=True`` re-raises :class:`EncBudgetExceeded`; by default a
    budget blowout returns the best encoding found with
    ``converged=False`` (the harness reports such rows as failures,
    like the paper does for scf).  An external ``budget`` (wall-clock
    deadline / shared node counter) is *not* degraded here — its
    :class:`~repro.runtime.BudgetExceeded` propagates so the harness
    can mark the cell as timed out rather than merely non-converged.
    """
    tracer = resolve_tracer(tracer)
    symbols = list(cset.symbols)
    if nv is None:
        nv = cset.min_code_length()
    rng = random.Random(seed)
    scorer = _Scorer(cset, nv, max_minimizations, budget, tracer)
    # the best encoding found and its total; a move changes them only
    # once it is fully scored and accepted
    codes: Dict[str, int] = dict(natural_encoding(symbols, nv).codes)
    best: Optional[int] = None
    passes = 0

    try:
        with tracer.span(
            "enc/encode", symbols=len(symbols), nv=nv
        ):
            best = scorer.score(codes)
            for _ in range(max_passes):
                passes += 1
                improved = False
                # candidate moves: all pair swaps plus moves to free
                # codes, in a seeded random order (ENC's pairwise
                # interchange)
                moves: List[Tuple[str, Optional[str], int]] = []
                for i, a in enumerate(symbols):
                    for b in symbols[i + 1 :]:
                        moves.append((a, b, -1))
                used = set(codes.values())
                for a in symbols:
                    for free in range(1 << nv):
                        if free not in used:
                            moves.append((a, None, free))
                rng.shuffle(moves)
                for a, b, free in moves:
                    trial = dict(codes)
                    if b is not None:
                        trial[a], trial[b] = codes[b], codes[a]
                    else:
                        if free in trial.values():
                            continue
                        trial[a] = free
                    total = scorer.score(trial, best)
                    if total is not None:  # below best
                        codes, best = trial, total
                        improved = True
                if not improved:
                    break
        converged = True
    except EncBudgetExceeded:
        if strict:
            raise
        converged = False
        if best is None:  # the budget ran out on the seed encoding
            best = scorer.uncounted(codes)
    finally:
        tracer.count("enc.minimizations", scorer.minimizations)
        tracer.count("enc.passes", passes)
        tracer.count("enc.memo.hits", scorer.hits)
        tracer.count("enc.memo.misses", scorer.misses)
        tracer.count("enc.memo.bounded", scorer.bounded)
        if scorer.hits + scorer.misses:
            tracer.gauge(
                "enc.memo.hit_rate",
                scorer.hits / (scorer.hits + scorer.misses),
            )

    return EncResult(
        encoding=Encoding(symbols, codes, nv),
        total_cubes=best,
        minimizations=scorer.minimizations,
        converged=converged,
    )
