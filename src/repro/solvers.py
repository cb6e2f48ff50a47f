"""A unified solver registry: every encoder behind one ``Solver`` API.

The harness historically dispatched on method names with if/elif
chains, and each encoder had its own calling convention (``picola``
takes a :class:`~repro.core.PicolaOptions`, ``mustang`` wants the raw
:class:`~repro.fsm.Fsm`, ``exact`` a node budget...).  This module
normalizes all of that behind one protocol::

    solver = get_solver("picola")
    result = solver.solve(symbols, constraints,
                          options={...}, budget=..., tracer=...)
    result.encoding       # the Encoding
    result.seconds        # wall clock of the encode step
    result.stats["nodes"] # solver work in its natural unit

Uniform signature (every registered solver)::

    solve(symbols, constraints=None, *,
          options=None, budget=None, deadline=None, tracer=None)
          -> EncodeResult

``symbols`` may be a prebuilt :class:`ConstraintSet` (then
``constraints`` must be omitted) or a plain sequence of symbol names
with ``constraints`` the face-constraint collection.  ``deadline`` is
a convenience: a bare :class:`~repro.runtime.Deadline` is wrapped into
a :class:`~repro.runtime.Budget` for solvers that only understand
budgets.  Solver-specific knobs ride in the ``options`` mapping (see
each adapter's docstring); unknown keys raise
:class:`~repro.runtime.InvalidSpecError` so typos do not silently
change an experiment.

The adapters *delegate* to the historical entry points
(:func:`picola_encode`, :func:`exact_encode`, ...) — those remain the
implementation and stay importable, with ``nv`` keyword-only
(``options={"nv": ...}`` here).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from .baselines.enc import enc_encode
from .baselines.mustang import mustang_encode
from .baselines.nova import nova_encode, state_affinity
from .baselines.simple import (
    gray_encoding,
    natural_encoding,
    random_encoding,
)
from .core.picola import PicolaOptions, picola_encode
from .encoding.codes import Encoding
from .encoding.constraints import ConstraintSet, FaceConstraint
from .encoding.exact import exact_encode
from .obs import Tracer, resolve_tracer
from .runtime import Budget, Deadline, InvalidSpecError, faults

__all__ = [
    "EncodeResult",
    "Solver",
    "get_solver",
    "list_solvers",
    "register_solver",
]


@dataclass
class EncodeResult:
    """What every solver returns: encoding + timing + typed stats.

    ``stats`` always carries ``"nodes"`` — the solver's work in its
    natural unit (beam states for picola, search nodes for exact,
    anneal moves for nova/mustang, constraint minimizations for enc,
    0 for the trivial encoders).  ``raw`` is the solver's native
    result object for callers that need method-specific fields.
    """

    solver: str
    encoding: Encoding
    seconds: float
    stats: Dict[str, Any] = field(default_factory=dict)
    raw: Any = None

    @property
    def nodes(self) -> int:
        return int(self.stats.get("nodes", 0))


def _as_constraint_set(
    symbols: Union[ConstraintSet, Sequence[str]],
    constraints: Optional[Sequence[FaceConstraint]],
) -> ConstraintSet:
    if isinstance(symbols, ConstraintSet):
        if constraints is not None:
            raise InvalidSpecError(
                "pass constraints inside the ConstraintSet, not both"
            )
        return symbols
    return ConstraintSet(symbols, constraints or ())


def _as_budget(
    budget: Optional[Budget], deadline: Optional[Deadline]
) -> Optional[Budget]:
    if deadline is None:
        return budget
    if budget is not None:
        raise InvalidSpecError("pass budget or deadline, not both")
    return Budget(deadline=deadline)


class Solver:
    """Base class of every registry entry.

    Subclasses implement :meth:`_run`; :meth:`solve` provides the
    uniform signature, argument normalization, option validation and
    wall-clock timing.
    """

    #: registry key; subclasses override
    name: str = ""
    #: option keys this solver understands
    option_keys: Tuple[str, ...] = ()

    def solve(
        self,
        symbols: Union[ConstraintSet, Sequence[str]],
        constraints: Optional[Sequence[FaceConstraint]] = None,
        *,
        options: Optional[Mapping[str, Any]] = None,
        budget: Optional[Budget] = None,
        deadline: Optional[Deadline] = None,
        tracer=None,
    ) -> EncodeResult:
        cset = _as_constraint_set(symbols, constraints)
        budget = _as_budget(budget, deadline)
        # the registry-wide budget seam: the fault-injection and fuzz
        # property tests arm this site to prove degradation end to end
        faults.trip("solver.solve", self.name)
        opts = dict(options or {})
        unknown = set(opts) - set(self.option_keys)
        if unknown:
            raise InvalidSpecError(
                f"solver {self.name!r} does not understand options "
                f"{sorted(unknown)}; known: {sorted(self.option_keys)}"
            )
        tracer = resolve_tracer(tracer)
        t0 = time.perf_counter()
        encoding, stats, raw = self._run(cset, opts, budget, tracer)
        seconds = time.perf_counter() - t0
        stats.setdefault("nodes", 0)
        return EncodeResult(
            solver=self.name,
            encoding=encoding,
            seconds=seconds,
            stats=stats,
            raw=raw,
        )

    def _run(
        self,
        cset: ConstraintSet,
        opts: Dict[str, Any],
        budget: Optional[Budget],
        tracer,
    ) -> Tuple[Encoding, Dict[str, Any], Any]:
        raise NotImplementedError

    @staticmethod
    def _counting(tracer):
        """A tracer whose counters we may read back.

        When the caller's tracer is live it is used directly (the
        counts land in the shared aggregates); when tracing is off a
        private sink-less :class:`Tracer` supplies the node counts
        without touching the global no-op path.
        """
        return tracer if tracer.enabled else Tracer()


class PicolaSolver(Solver):
    """PICOLA (the paper's algorithm).

    Options: ``nv`` (code length), ``picola_options``
    (:class:`PicolaOptions`), ``seed`` (accepted for uniformity,
    unused — PICOLA is deterministic).
    """

    name = "picola"
    option_keys = ("nv", "picola_options", "seed")

    def _run(self, cset, opts, budget, tracer):
        t = self._counting(tracer)
        before = t.counter("picola.beam_states")
        result = picola_encode(
            cset,
            nv=opts.get("nv"),
            options=opts.get("picola_options"),
            budget=budget,
            tracer=t,
        )
        stats = {
            "nodes": t.counter("picola.beam_states") - before,
            "satisfied": len(result.satisfied),
            "guided": len(result.infeasible),
        }
        return result.encoding, stats, result


class ExactSolver(Solver):
    """Branch-and-bound optimum (reference).

    Options: ``nv``, ``max_nodes``, ``strict``, ``seed`` (unused).
    """

    name = "exact"
    option_keys = ("nv", "max_nodes", "strict", "seed")

    def _run(self, cset, opts, budget, tracer):
        kwargs: Dict[str, Any] = {"nv": opts.get("nv")}
        if "max_nodes" in opts:
            kwargs["max_nodes"] = opts["max_nodes"]
        if "strict" in opts:
            kwargs["strict"] = opts["strict"]
        result = exact_encode(
            cset, budget=budget, tracer=tracer, **kwargs
        )
        stats = {
            "nodes": result.nodes,
            "satisfied": result.satisfied,
            "optimal": result.optimal,
        }
        return result.encoding, stats, result


class NovaSolver(Solver):
    """NOVA-style baseline.

    Options: ``nv``, ``variant`` (``i_greedy``/``i_hybrid``/
    ``io_hybrid``), ``seed``, ``anneal_moves``, ``affinity`` (pair
    weights), or ``fsm`` — with ``io_hybrid``, the affinity matrix is
    derived from it via :func:`state_affinity` when not given.
    """

    name = "nova"
    option_keys = (
        "nv", "variant", "seed", "anneal_moves", "affinity", "fsm",
    )

    def _run(self, cset, opts, budget, tracer):
        variant = opts.get("variant", "i_hybrid")
        affinity = opts.get("affinity")
        if (
            affinity is None
            and variant == "io_hybrid"
            and opts.get("fsm") is not None
        ):
            affinity = state_affinity(opts["fsm"])
        t = self._counting(tracer)
        before = t.counter("nova.moves")
        result = nova_encode(
            cset,
            nv=opts.get("nv"),
            variant=variant,
            affinity=affinity,
            seed=opts.get("seed", 0),
            anneal_moves=opts.get("anneal_moves", 4000),
            budget=budget,
            tracer=t,
        )
        stats = {
            "nodes": t.counter("nova.moves") - before,
            "satisfied": result.satisfied,
            "objective": result.objective,
        }
        return result.encoding, stats, result


class MustangSolver(Solver):
    """MUSTANG-style baseline; needs the FSM (``options["fsm"]``).

    Options: ``fsm`` (required), ``nv``, ``variant`` (``p``/``n``),
    ``seed``, ``anneal_moves``.
    """

    name = "mustang"
    option_keys = ("fsm", "nv", "variant", "seed", "anneal_moves")

    def _run(self, cset, opts, budget, tracer):
        fsm = opts.get("fsm")
        if fsm is None:
            raise InvalidSpecError(
                "solver 'mustang' needs options={'fsm': <Fsm>} — it "
                "encodes the attraction graph of the machine, not the "
                "face constraints"
            )
        t = self._counting(tracer)
        before = t.counter("mustang.moves")
        result = mustang_encode(
            fsm,
            opts.get("nv", cset.min_code_length()),
            variant=opts.get("variant", "p"),
            seed=opts.get("seed", 0),
            anneal_moves=opts.get("anneal_moves", 3000),
            budget=budget,
            tracer=t,
        )
        stats = {
            "nodes": t.counter("mustang.moves") - before,
            "attraction": result.attraction,
        }
        return result.encoding, stats, result


class EncSolver(Solver):
    """ENC-style minimizer-in-the-loop baseline.

    Options: ``nv``, ``seed``, ``max_minimizations``, ``max_passes``,
    ``strict``.
    """

    name = "enc"
    option_keys = (
        "nv", "seed", "max_minimizations", "max_passes", "strict",
    )

    def _run(self, cset, opts, budget, tracer):
        kwargs: Dict[str, Any] = {
            "nv": opts.get("nv"),
            "seed": opts.get("seed", 0),
        }
        for key in ("max_minimizations", "max_passes", "strict"):
            if key in opts:
                kwargs[key] = opts[key]
        result = enc_encode(
            cset, budget=budget, tracer=tracer, **kwargs
        )
        stats = {
            "nodes": result.minimizations,
            "minimizations": result.minimizations,
            "converged": result.converged,
            "total_cubes": result.total_cubes,
        }
        return result.encoding, stats, result


class SimpleSolver(Solver):
    """The trivial encoders (natural / gray / random).

    Options: ``scheme`` (default ``natural``), ``nv``, ``seed``
    (random scheme only).
    """

    name = "simple"
    option_keys = ("scheme", "nv", "seed")

    _SCHEMES = ("natural", "gray", "random")

    def _run(self, cset, opts, budget, tracer):
        scheme = opts.get("scheme", "natural")
        if scheme not in self._SCHEMES:
            raise InvalidSpecError(
                f"unknown simple scheme {scheme!r}; "
                f"choose from {self._SCHEMES}"
            )
        symbols = list(cset.symbols)
        nv = opts.get("nv")
        with tracer.span("simple/encode", scheme=scheme):
            if scheme == "natural":
                encoding = natural_encoding(symbols, nv)
            elif scheme == "gray":
                encoding = gray_encoding(symbols, nv)
            else:
                encoding = random_encoding(
                    symbols, nv, seed=opts.get("seed", 0)
                )
        return encoding, {"nodes": 0, "scheme": scheme}, encoding


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Solver] = {}


def register_solver(solver: Solver, *, replace: bool = False) -> Solver:
    """Add a :class:`Solver` instance to the registry by its name."""
    if not solver.name:
        raise ValueError("solver needs a non-empty name")
    if solver.name in _REGISTRY and not replace:
        raise ValueError(
            f"solver {solver.name!r} already registered "
            "(pass replace=True to override)"
        )
    _REGISTRY[solver.name] = solver
    return solver


def get_solver(name: str) -> Solver:
    """Look a solver up by name; raises
    :class:`~repro.runtime.InvalidSpecError` with the menu."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidSpecError(
            f"unknown solver {name!r}; available: {list_solvers()}"
        ) from None


def list_solvers() -> Tuple[str, ...]:
    """The registered solver names, sorted."""
    return tuple(sorted(_REGISTRY))


for _solver in (
    PicolaSolver(),
    ExactSolver(),
    NovaSolver(),
    MustangSolver(),
    EncSolver(),
    SimpleSolver(),
):
    register_solver(_solver)
del _solver
