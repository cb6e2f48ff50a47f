"""The request/response layer of the repro.

Everything that wants an encoding — the CLI, ``assign_states``, the
``repro.api`` facade — builds an :class:`EncodeRequest`, hands it to
:func:`execute` and receives an :class:`EncodeResponse`.  One dispatch
path means budgets, tracing and failure classification cannot drift
between callers.

Layout:

* :mod:`repro.service.request`  — the frozen, validated
  request/response types;
* :mod:`repro.service.dispatch` — :func:`execute`, the single
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
