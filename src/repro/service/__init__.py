"""The request/response layer of the repro.

``assign_states`` and the ``repro.api`` facade (``repro.encode``)
build an :class:`EncodeRequest`, hand it to :func:`execute` and
receive an :class:`EncodeResponse`, so those two callers share
budgets, tracing and failure classification.  The CLI commands built
on ``assign_states`` (``encode``, ``profile``, ``export``, ``table2``)
inherit that path; ``table1``, ``ablation``, ``sweep``, ``analyze``
and ``motivation`` call :meth:`repro.solvers.Solver.solve` or the
encoders directly and do not pass through this layer.

Layout:

* :mod:`repro.service.request`  — the frozen, validated
  request/response types;
* :mod:`repro.service.dispatch` — :func:`execute`, the
  request-to-response code path.
"""

from .dispatch import REQUEST_SPAN, SOLVE_SPAN, execute
from .request import EncodeRequest, EncodeResponse

__all__ = [
    "EncodeRequest",
    "EncodeResponse",
    "execute",
    "REQUEST_SPAN",
    "SOLVE_SPAN",
]
