"""PICOLA: the Partial Input COLumn-based Algorithm (Section 3).

Pseudocode from the paper::

    PICOLA() {
        get_constraint_matrix();
        for each column {
            Update_constraints();   // Classify + add guide constraints
            Solve();                // generate one code column
        }
    }

:func:`picola_encode` is the public entry point; it returns a
:class:`PicolaResult` carrying the encoding, the final constraint
matrix (with the paper's mark notation), and per-constraint outcomes
(satisfied / infeasible+guided).

The driver keeps a small deterministic *beam* of partial encodings:
each level runs Update_constraints()/Solve() per beam state and keeps
the most promising children, which compensates for the myopia of
committing to a single column at a time.  ``beam_width=1`` recovers
the paper's single-pass shape exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..encoding.codes import Encoding
from ..encoding.constraints import ConstraintSet, FaceConstraint
from ..encoding.matrix import ConstraintMatrix, ConstraintRow
from ..obs import resolve_tracer
from ..runtime import Budget, InfeasibleError, InvalidSpecError, faults
from .classify import classify
from .guides import guide_constraint
from .solve import PrefixGroups, candidate_columns
from .weights import PRESETS, WeightPolicy

__all__ = ["PicolaOptions", "PicolaResult", "picola_encode"]


@dataclass(frozen=True)
class PicolaOptions:
    """Tuning knobs; the defaults are the paper's algorithm."""

    #: substitute infeasible constraints by their guide constraints
    use_guides: bool = True
    #: run Classify() before every column (False = only once, up
    #: front; the ablation of the paper's "dynamic detection" claim)
    dynamic_classify: bool = True
    #: dichotomy weight policy (see repro.core.weights.PRESETS)
    weights: Union[WeightPolicy, str] = "picola"
    #: partial encodings carried between columns (1 = pure greedy)
    beam_width: int = 4
    #: candidate columns considered per beam state per level
    beam_candidates: int = 3
    #: local-search repair of the finished encoding (see core.repair)
    final_repair: bool = True

    def weight_policy(self) -> WeightPolicy:
        if isinstance(self.weights, WeightPolicy):
            return self.weights
        return PRESETS[self.weights]


@dataclass
class _BeamState:
    matrix: ConstraintMatrix
    groups: PrefixGroups
    columns: List[Dict[str, int]]
    guides_added: List[FaceConstraint]

    def clone(self) -> "_BeamState":
        return _BeamState(
            matrix=self.matrix.clone(),
            groups=self.groups.clone(),
            columns=list(self.columns),
            guides_added=list(self.guides_added),
        )

    def score(self, policy: WeightPolicy) -> float:
        """Cumulative promise: satisfied rows plus mark progress."""
        total = 0.0
        for row in self.matrix.rows:
            w = row.constraint.weight
            if row.constraint.is_guide():
                w *= policy.guide_factor
            if row.infeasible:
                continue
            if row.satisfied():
                total += 2.0 * w
            else:
                total += w * row.satisfied_fraction()
        return total


@dataclass
class PicolaResult:
    """Outcome of one PICOLA run."""

    encoding: Encoding
    matrix: ConstraintMatrix
    constraints: ConstraintSet
    options: PicolaOptions
    guides_added: List[FaceConstraint] = field(default_factory=list)

    @property
    def satisfied(self) -> List[FaceConstraint]:
        return [
            r.constraint
            for r in self.matrix.original_rows()
            if not r.infeasible and r.satisfied()
        ]

    @property
    def infeasible(self) -> List[FaceConstraint]:
        return [
            r.constraint
            for r in self.matrix.original_rows()
            if r.infeasible
        ]

    @property
    def unsatisfied(self) -> List[FaceConstraint]:
        return [
            r.constraint
            for r in self.matrix.original_rows()
            if not r.infeasible and not r.satisfied()
        ]

    def summary(self) -> str:
        total = len(self.matrix.original_rows())
        return (
            f"{len(self.satisfied)}/{total} constraints satisfied, "
            f"{len(self.infeasible)} guided as infeasible, "
            f"nv={self.encoding.n_bits}"
        )


def _update_constraints(
    state: _BeamState, options: PicolaOptions, tracer=None
) -> None:
    """The paper's Update_constraints(): Classify + add guides.

    A row detected infeasible before the encoding narrowed its
    intruder set gets no guide yet (a guide on "everybody" constrains
    nothing); it is re-visited every column until the intruders form a
    set worth guiding.
    """
    tracer = resolve_tracer(tracer)
    classify(state.matrix, tracer=tracer)
    if not options.use_guides:
        return
    for row in state.matrix.rows:
        if not row.infeasible or row.guide_added:
            continue
        if row.constraint.is_guide():
            row.guide_added = True  # never guide a guide
            continue
        guide = guide_constraint(row)
        if guide is not None:
            row.guide_added = True
            state.matrix.add_constraint(guide)
            state.guides_added.append(guide)
            tracer.count("picola.guides_added")
            tracer.gauge(
                "picola.intruder_set", len(row.intruders())
            )


def picola_encode(
    symbols_or_set: Union[Sequence[str], ConstraintSet],
    constraints: Optional[Sequence[FaceConstraint]] = None,
    *,
    nv: Optional[int] = None,
    options: Optional[PicolaOptions] = None,
    budget: Optional[Budget] = None,
    tracer=None,
) -> PicolaResult:
    """Encode symbols under face constraints with minimum code length.

    Accepts either a prebuilt :class:`ConstraintSet` or
    ``(symbols, constraints)``.  ``nv`` defaults to ``ceil(log2 n)``
    — the minimum length; larger values are allowed (the algorithm
    generalizes) but the paper's problem is the minimum one.
    ``budget`` is a cooperative :class:`~repro.runtime.Budget` checked
    once per column per beam state; ``tracer`` is an optional
    :class:`~repro.obs.Tracer` (default: the module-level tracer)
    recording spans and counters at the same loop heads.
    """
    tracer = resolve_tracer(tracer)
    if isinstance(symbols_or_set, ConstraintSet):
        cset = symbols_or_set
        if constraints is not None:
            raise InvalidSpecError(
                "pass constraints inside the ConstraintSet, not both"
            )
    else:
        cset = ConstraintSet(symbols_or_set, constraints or ())
    if options is None:
        options = PicolaOptions()
    if options.beam_width < 1 or options.beam_candidates < 1:
        raise InvalidSpecError("beam_width and beam_candidates must be >= 1")
    policy = options.weight_policy()

    if nv is None:
        nv = cset.min_code_length()
    if (1 << nv) < cset.n_symbols:
        raise InfeasibleError(
            f"{nv} bits cannot distinguish {cset.n_symbols} symbols"
        )

    beam = [
        _BeamState(
            matrix=ConstraintMatrix(cset, nv),
            groups=PrefixGroups(list(cset.symbols), nv),
            columns=[],
            guides_added=[],
        )
    ]
    classified_once = False
    with tracer.span("picola/encode", symbols=cset.n_symbols, nv=nv):
        for j in range(nv):
            faults.trip("picola.column")
            children: List[Tuple[float, int, _BeamState]] = []
            with tracer.span("picola/column", col=j):
                tracer.count("picola.columns")
                for state in beam:
                    if budget is not None:
                        budget.tick(where="picola_encode")
                    tracer.count("picola.beam_states")
                    if options.dynamic_classify or not classified_once:
                        _update_constraints(state, options, tracer)
                    candidates = candidate_columns(
                        state.matrix, state.groups, policy,
                        limit=options.beam_candidates,
                        tracer=tracer,
                    )
                    for column in candidates:
                        child = state.clone()
                        child.matrix.record_column(column)
                        child.groups.apply_column(column)
                        child.columns.append(column)
                        children.append(
                            (child.score(policy), len(children), child)
                        )
                tracer.count("picola.beam_children", len(children))
            classified_once = True
            children.sort(key=lambda item: (-item[0], item[1]))
            beam = [
                child for _, _, child in children[: options.beam_width]
            ]

        best = beam[0]
        if options.dynamic_classify:
            for state in beam:
                # final classification
                _update_constraints(state, options, tracer)
        encoding = Encoding.from_columns(list(cset.symbols), best.columns)
        matrix = best.matrix
        if options.final_repair:
            from .repair import polish_encoding, satisfaction_cost_score

            # polish the strongest beam leaves and keep the best
            # repaired encoding by the satisfaction/cost objective
            with tracer.span("picola/repair"):
                best_score = None
                best_pair = None
                for state in beam[: min(3, len(beam))]:
                    if budget is not None:
                        budget.check(where="picola_repair")
                    candidate = Encoding.from_columns(
                        list(cset.symbols), state.columns
                    )
                    polished = polish_encoding(candidate, cset)
                    score = satisfaction_cost_score(polished, cset)
                    if best_score is None or score > best_score:
                        best_score = score
                        best_pair = (polished, state)
                assert best_pair is not None
                polished, leaf = best_pair
                if polished.codes != encoding.codes:
                    best = leaf
                    encoding = polished
                    matrix = _replay_matrix(
                        cset, leaf.guides_added, encoding, nv, options
                    )
    if not encoding.is_injective():
        raise AssertionError(
            "PICOLA produced a non-injective encoding; the validity "
            "invariant is broken"
        )
    return PicolaResult(
        encoding=encoding,
        matrix=matrix,
        constraints=cset,
        options=options,
        guides_added=best.guides_added,
    )


def _replay_matrix(
    cset: ConstraintSet,
    guides: Sequence[FaceConstraint],
    encoding: Encoding,
    nv: int,
    options: PicolaOptions,
) -> ConstraintMatrix:
    """Rebuild a consistent constraint matrix for a repaired encoding."""
    matrix = ConstraintMatrix(cset, nv)
    for guide in guides:
        matrix.add_constraint(guide)
    for j in range(nv):
        if options.dynamic_classify:
            classify(matrix)
        matrix.record_column(encoding.column(j))
    if options.dynamic_classify:
        classify(matrix)
    return matrix
