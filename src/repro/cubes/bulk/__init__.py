"""Packed covers: the columnar bulk cube kernel.

A *packed cover* is a whole cover handled through bulk, whole-cover
primitives (containment masks, supercube folds, cofactors against a
pivot, single-call absorption, bulk minterm counting) instead of
per-cube loops in the algorithm layer.  The one implementation is
:class:`~repro.cubes.bulk.pybackend.PythonKernel`, whose packed cover
is a list of int rows over the :class:`~repro.cubes.space.Space`
layout; :func:`active_kernel` returns it.
"""

from __future__ import annotations

from .pybackend import PythonKernel, bit_count

__all__ = ["active_kernel", "bit_count"]

_KERNEL = PythonKernel()


def active_kernel() -> PythonKernel:
    """The kernel the algorithm layer runs on."""
    return _KERNEL
