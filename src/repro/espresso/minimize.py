"""The ESPRESSO main loop.

``espresso(space, onset, dcset)`` runs the classic fixed point

    EXPAND -> IRREDUNDANT -> { REDUCE -> EXPAND -> IRREDUNDANT }
    until the cost stops improving -> [LASTGASP]

over covers represented as lists of int cubes in any multi-valued
space.  Cost is (number of cubes, number of asserted positions), the
same lexicographic objective ESPRESSO uses (cube count first, then
literals).

``espresso_pla`` is the convenience entry point for :class:`Pla`
objects (multi-output functions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..cubes import Space, absorb, bulk, complement, contains
from ..obs import resolve_tracer
from ..runtime import Budget, faults
from .expand import Blocked, expand_cubes_with, expand_with
from .irredundant import irredundant
from .pla import Pla
from .reduce import reduce_cover, reduce_cube

__all__ = ["espresso", "espresso_pla", "EspressoStats", "cover_cost"]

#: the default cap on REDUCE -> EXPAND -> IRREDUNDANT rounds
MAX_ITERATIONS = 20


@dataclass
class EspressoStats:
    """Run statistics of one espresso() invocation."""

    iterations: int = 0
    initial_terms: int = 0
    final_terms: int = 0
    lastgasp_improved: bool = False


def cover_cost(space: Space, cover: Sequence[int]) -> Tuple[int, int]:
    """(cube count, asserted positions) — lexicographic minimization goal.

    "Asserted positions" counts the zero bits of each cube: fewer set
    bits means a larger cube, so we count *missing* bits as cost.
    """
    literals = sum(
        space.width - bin(cube).count("1") for cube in cover
    )
    return (len(cover), literals)


def espresso(
    space: Space,
    onset: Sequence[int],
    dcset: Sequence[int] = (),
    *,
    use_lastgasp: bool = True,
    max_iterations: int = MAX_ITERATIONS,
    stats: Optional[EspressoStats] = None,
    budget: Optional[Budget] = None,
    tracer=None,
) -> List[int]:
    """Heuristically minimize ``onset`` with don't-cares ``dcset``.

    Returns a new cover with the same coverage over the care set,
    typically with (near-)minimal cube count.  ``budget`` is a
    cooperative deadline/counter checked once per improvement
    iteration (the passes themselves are not interrupted); ``tracer``
    (default: the module-level tracer) records an
    ``espresso/minimize`` span, per-iteration counters and
    cubes-after-pass gauges at the same seam.
    """
    if stats is None:
        stats = EspressoStats()
    tracer = resolve_tracer(tracer)
    dc = list(dcset)
    cover = absorb(list(onset))
    stats.initial_terms = len(cover)
    if not cover:
        stats.final_terms = 0
        return []
    with tracer.span(
        "espresso/minimize", terms=len(cover), width=space.width
    ):
        # the off-set is fixed for the whole run: every EXPAND, LASTGASP's
        # included, shares one column-wise blocking check
        blocked = bulk.blocker(space, complement(space, cover + dc))

        cover = _expand(space, cover, blocked, tracer)
        cover = irredundant(space, cover, dc, tracer=tracer)

        best = cover_cost(space, cover)
        while stats.iterations < max_iterations:
            faults.trip("espresso.iteration")
            if budget is not None:
                budget.tick(where="espresso")
            tracer.count("espresso.iterations")
            stats.iterations += 1
            cover = reduce_cover(space, cover, dc, tracer=tracer)
            cover = _expand(space, cover, blocked, tracer)
            tracer.gauge("espresso.cubes_after_expand", len(cover))
            cover = irredundant(space, cover, dc, tracer=tracer)
            tracer.gauge(
                "espresso.cubes_after_irredundant", len(cover)
            )
            cost = cover_cost(space, cover)
            if cost >= best:
                break
            best = cost

        if use_lastgasp:
            with tracer.span("espresso/lastgasp"):
                improved = _lastgasp(space, cover, dc, blocked)
            if improved is not None:
                cover = improved
                stats.lastgasp_improved = True
    stats.final_terms = len(cover)
    return cover


def _expand(
    space: Space, cover: List[int], blocked: Blocked, tracer
) -> List[int]:
    """One EXPAND pass, counted as ``espresso.expand.cubes``."""
    tracer.count("espresso.expand.cubes", len(cover))
    return expand_with(space, cover, blocked)


def _lastgasp(
    space: Space,
    cover: List[int],
    dc: Sequence[int],
    blocked: Blocked,
) -> Optional[List[int]]:
    """ESPRESSO's LASTGASP: maximally reduce each cube independently,
    expand the reductions trying to cover *two* or more of them, and
    accept the result only if it lowers the cost."""
    reduced: List[int] = []
    for i, cube in enumerate(cover):
        rest = [c for j, c in enumerate(cover) if j != i]
        small = reduce_cube(space, cube, rest + list(dc))
        if small:
            reduced.append(small)
    if not reduced:
        return None
    candidates: List[int] = []
    for prime in expand_cubes_with(space, reduced, blocked, reduced):
        covers = sum(1 for r in reduced if contains(prime, r))
        if covers >= 2:
            candidates.append(prime)
    if not candidates:
        return None
    trial = irredundant(space, absorb(cover + candidates), list(dc))
    if cover_cost(space, trial) < cover_cost(space, cover):
        return trial
    return None


def espresso_pla(pla: Pla, **kwargs) -> Pla:
    """Minimize a multi-output :class:`Pla`; returns a new Pla."""
    stats = kwargs.pop("stats", None)
    minimized = espresso(
        pla.space, pla.onset, pla.dcset, stats=stats, **kwargs
    )
    result = pla.copy()
    result.onset = minimized
    return result
