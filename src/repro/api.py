"""The stable programmatic surface of the repro.

One call covers everything the paper's pipeline needs:

>>> import repro
>>> request = repro.EncodeRequest.build(
...     ["s0", "s1", "s2", "s3"],
...     [{"symbols": ["s0", "s1"]}, {"symbols": ["s2", "s3"]}],
...     solver="picola",
... )
>>> response = repro.encode(request)
>>> response.ok, response.n_bits
(True, 2)

:func:`encode` serves one request and returns a classified
:class:`~repro.service.EncodeResponse`; a batch is
``[repro.encode(r) for r in requests]``.

This module is a thin facade over :mod:`repro.service`; it exists so
callers depend on a one-function surface instead of the service
internals.
"""

from __future__ import annotations

from typing import Any, Optional

from .runtime import Budget
from .service.dispatch import execute as _execute
from .service.request import EncodeRequest, EncodeResponse

__all__ = ["encode", "EncodeRequest", "EncodeResponse"]


def encode(
    request: EncodeRequest,
    *,
    budget: Optional[Budget] = None,
    tracer: Any = None,
    classify: bool = True,
) -> EncodeResponse:
    """Serve one :class:`EncodeRequest`.

    Failures are classified into the response ``status`` by default;
    pass ``classify=False`` to let solver errors propagate as
    exceptions (the harness' fault isolation wants the raw error).
    An explicit ``budget`` overrides the request's declarative QoS,
    letting several pipeline steps share one allowance.
    """
    return _execute(
        request,
        budget=budget,
        tracer=tracer,
        classify=classify,
    )
