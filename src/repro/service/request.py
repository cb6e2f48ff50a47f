"""The request/response boundary: frozen, validated encode payloads.

Every encode — an interactive ``repro.api.encode`` call, a harness
``assign_states`` step, a CLI command — crosses this boundary as an
:class:`EncodeRequest` and comes back as an :class:`EncodeResponse`.
Both are frozen dataclasses.

Conventions:

* the *symbol order* is significant (it is the row order of the
  paper's constraint matrix);
* QoS rides in the request: ``timeout`` (wall-clock seconds) and
  ``max_nodes`` map onto the cooperative
  :class:`~repro.runtime.Budget`/:class:`~repro.runtime.Deadline`
  runtime at dispatch;
* a response is *classified*, never an exception: ``status`` is one
  of ``ok`` / ``infeasible`` / ``timeout`` / ``budget`` / ``failed``
  (mirroring :mod:`repro.runtime.isolation`), with ``error`` /
  ``error_type`` carrying the diagnostic on the non-``ok`` statuses.

Options may be live Python objects (a :class:`~repro.fsm.Fsm` for
the mustang solver, a :class:`~repro.core.PicolaOptions`); they are
handed to the registry solver as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (
    Any,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..encoding.codes import Encoding
from ..encoding.constraints import ConstraintSet, FaceConstraint
from ..runtime import Budget, InvalidSpecError

__all__ = [
    "EncodeRequest",
    "EncodeResponse",
    "RESPONSE_STATUSES",
]

#: every status a classified response may carry
RESPONSE_STATUSES = (
    "ok", "infeasible", "timeout", "budget", "failed",
)


def _constraint_from_any(
    value: Union[FaceConstraint, Mapping[str, Any], Iterable[str]],
) -> FaceConstraint:
    if isinstance(value, FaceConstraint):
        return value
    if isinstance(value, Mapping):
        unknown = set(value) - {"symbols", "kind", "parent", "weight"}
        if unknown:
            raise InvalidSpecError(
                f"constraint has unknown keys {sorted(unknown)}"
            )
        return FaceConstraint(
            value["symbols"],
            kind=value.get("kind", "original"),
            parent=value.get("parent"),
            weight=value.get("weight", 1.0),
        )
    return FaceConstraint(value)


@dataclass(frozen=True)
class EncodeRequest:
    """One encode problem plus solver choice, options and QoS.

    Construct with :meth:`build` (accepts a
    :class:`~repro.encoding.ConstraintSet`, ``FaceConstraint``
    instances, plain symbol groups or ``{"symbols": [...]}`` dicts).
    Instances are frozen; derive variants with
    :func:`dataclasses.replace`.
    """

    symbols: Tuple[str, ...]
    constraints: Tuple[FaceConstraint, ...] = ()
    solver: str = "picola"
    options: Mapping[str, Any] = field(default_factory=dict)
    nv: Optional[int] = None
    #: QoS: wall-clock limit in seconds (None = unlimited)
    timeout: Optional[float] = None
    #: QoS: cooperative node budget (None = unlimited)
    max_nodes: Optional[int] = None
    #: attach a per-request trace summary to the response
    trace: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        object.__setattr__(
            self,
            "constraints",
            tuple(
                _constraint_from_any(c) for c in self.constraints
            ),
        )
        object.__setattr__(
            self,
            "options",
            MappingProxyType(dict(self.options)),
        )
        if not self.symbols:
            raise InvalidSpecError("a request needs at least one symbol")
        if not self.solver or not isinstance(self.solver, str):
            raise InvalidSpecError("solver must be a non-empty name")
        if self.nv is not None and self.nv < 1:
            raise InvalidSpecError("nv must be >= 1")
        if self.timeout is not None and self.timeout < 0:
            raise InvalidSpecError("timeout must be >= 0 seconds")
        if self.max_nodes is not None and self.max_nodes < 0:
            raise InvalidSpecError("max_nodes must be >= 0")
        if "nv" in self.options and self.nv is not None:
            raise InvalidSpecError(
                "pass nv as the request field or in options, not both"
            )
        # validates symbol uniqueness and constraint membership early,
        # so malformed requests die at the boundary, not mid-dispatch
        self.constraint_set()

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        symbols: Union[ConstraintSet, Sequence[str]],
        constraints: Optional[Iterable[Any]] = None,
        *,
        solver: str = "picola",
        options: Optional[Mapping[str, Any]] = None,
        nv: Optional[int] = None,
        timeout: Optional[float] = None,
        max_nodes: Optional[int] = None,
        trace: bool = False,
    ) -> "EncodeRequest":
        """The friendly constructor mirroring ``Solver.solve``."""
        if isinstance(symbols, ConstraintSet):
            if constraints is not None:
                raise InvalidSpecError(
                    "pass constraints inside the ConstraintSet, "
                    "not both"
                )
            cset = symbols
            symbols = cset.symbols
            constraints = tuple(cset.constraints)
        return cls(
            symbols=tuple(symbols),
            constraints=tuple(constraints or ()),
            solver=solver,
            options=dict(options or {}),
            nv=nv,
            timeout=timeout,
            max_nodes=max_nodes,
            trace=trace,
        )

    # ------------------------------------------------------------------
    def constraint_set(self) -> ConstraintSet:
        """The problem as the solvers' native :class:`ConstraintSet`."""
        return ConstraintSet(self.symbols, self.constraints)

    def solver_options(self) -> Dict[str, Any]:
        """The options mapping handed to the registry solver."""
        options = dict(self.options)
        if self.nv is not None:
            options["nv"] = self.nv
        return options

    def make_budget(self) -> Optional[Budget]:
        """The request's QoS as a fresh cooperative :class:`Budget`."""
        if self.timeout is None and self.max_nodes is None:
            return None
        return Budget(max_nodes=self.max_nodes, seconds=self.timeout)


@dataclass(frozen=True)
class EncodeResponse:
    """The classified outcome of one :class:`EncodeRequest`.

    ``codes``/``n_bits`` carry the encoding on ``status == "ok"``
    (reconstruct the rich object with :meth:`encoding`); ``stats``
    mirrors :attr:`repro.solvers.EncodeResult.stats`, restricted to
    plain values.
    """

    status: str
    solver: str
    symbols: Tuple[str, ...] = ()
    codes: Optional[Mapping[str, int]] = None
    n_bits: Optional[int] = None
    seconds: float = 0.0
    stats: Mapping[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    error_type: Optional[str] = None
    trace: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if self.status not in RESPONSE_STATUSES:
            raise InvalidSpecError(
                f"bad response status {self.status!r}; "
                f"choose from {RESPONSE_STATUSES}"
            )
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if self.codes is not None:
            object.__setattr__(
                self, "codes", MappingProxyType(dict(self.codes))
            )
        object.__setattr__(
            self, "stats", MappingProxyType(dict(self.stats))
        )
        if self.trace is not None:
            object.__setattr__(
                self, "trace", MappingProxyType(dict(self.trace))
            )

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def encoding(self) -> Encoding:
        """The result as a rich :class:`~repro.encoding.Encoding`."""
        if self.codes is None or self.n_bits is None:
            raise InvalidSpecError(
                f"response has no encoding (status={self.status!r}, "
                f"error={self.error!r})"
            )
        return Encoding(self.symbols, dict(self.codes), self.n_bits)
