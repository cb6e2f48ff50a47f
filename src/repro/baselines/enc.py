"""An ENC-style baseline (Saldanha, Villa, Brayton, S-V, TCAD 1994).

ENC targets the same *partial* encoding problem as PICOLA — minimize
the product terms implementing the complete constraint set — but does
it by keeping the two-level logic minimizer in its inner loop: from a
seed encoding it repeatedly tries code swaps/moves, re-minimizes the
encoded constraints, and keeps any move that lowers the real cube
count.  Quality is therefore comparable to PICOLA's, while the run
time is dominated by the O(moves x constraints) minimizations — the
paper's observation that "ENC is not practical for medium and large
examples" (and is reported to fail on ``scf``) falls straight out of
this structure, which our harness reproduces with an evaluation
budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..encoding.codes import Encoding
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


class _Scorer:
    """Per-run constraint scoring for ENC's search.

    Every score is a *logical* evaluation: it counts against
    ``max_minimizations``, ticks the external budget and, once per
    scored encoding, trips the ``enc.minimize`` fault site, in the
    order a plain loop over the constraints would.  Only the real
    minimizations are saved: each constraint is looked up in a memo
    keyed by its function exactly as :func:`cubes_for_codes` takes
    it.  The key packs, into one ``int``, a leading 1 (the length
    sentinel), the onset codes in sorted-symbol order and the bitmask
    of unused codes.  Order matters: espresso's result can depend on
    it, so two onsets holding the same codes in a different order are
    minimized apart.
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

    def _cubes(self, i: int, codes: Dict[str, int], unused: int) -> int:
        onset = [codes[s] for s in self.constraints[i]]
        key = 1
        for code in onset:
            key = (key << self.nv) | code
        key = (key << (1 << self.nv)) | unused
        cubes = self.memo.get(key)
        if cubes is None:
            self.misses += 1
            cubes = self.memo[key] = cubes_for_codes(
                self.nv, onset, unused, tracer=self.tracer
            )
        else:
            self.hits += 1
        return cubes

    def _unused_mask(self, codes: Dict[str, int]) -> int:
        used = 0
        for code in codes.values():
            used |= 1 << code
        return ((1 << (1 << self.nv)) - 1) & ~used

    def score(self, codes: Dict[str, int]) -> int:
        """Total cubes of ``codes``, one logical evaluation each."""
        faults.trip("enc.minimize")
        unused = self._unused_mask(codes)
        total = 0
        for i in range(len(self.constraints)):
            self.minimizations += 1
            if self.minimizations > self.max_minimizations:
                raise EncBudgetExceeded(
                    f"exceeded {self.max_minimizations} constraint "
                    "minimizations"
                )
            if self.budget is not None:
                self.budget.tick(where="enc_encode")
            total += self._cubes(i, codes, unused)
        return total

    def uncounted(self, codes: Dict[str, int]) -> int:
        """Total cubes of ``codes``, outside the budget."""
        unused = self._unused_mask(codes)
        return sum(
            self._cubes(i, codes, unused)
            for i in range(len(self.constraints))
        )


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
                    total = scorer.score(trial)
                    if total < best:
                        codes, best = trial, total
                        improved = True
                if not improved:
                    break
        converged = True
    except EncBudgetExceeded:
        if strict:
            raise
        converged = False
    finally:
        tracer.count("enc.minimizations", scorer.minimizations)
        tracer.count("enc.passes", passes)
        tracer.count("enc.memo.hits", scorer.hits)
        tracer.count("enc.memo.misses", scorer.misses)
        if scorer.hits + scorer.misses:
            tracer.gauge(
                "enc.memo.hit_rate",
                scorer.hits / (scorer.hits + scorer.misses),
            )

    if best is None:  # the budget ran out on the seed encoding
        best = scorer.uncounted(codes)
    return EncResult(
        encoding=Encoding(symbols, codes, nv),
        total_cubes=best,
        minimizations=scorer.minimizations,
        converged=converged,
    )
