"""A from-scratch ESPRESSO-style two-level logic minimizer.

* :func:`espresso` — the heuristic EXPAND/IRREDUNDANT/REDUCE loop over
  covers in any multi-valued space.
* :func:`espresso_pla` — convenience wrapper for multi-output
  :class:`Pla` functions.
* :func:`exact_minimize` — Quine–McCluskey exact minimization for
  small functions (ground truth in tests).
* :class:`Pla`, :func:`parse_pla`, :func:`format_pla` — espresso file
  format support.
"""

from .exact import ExactLimitError, all_primes, exact_minimize
from .functions import CLASSICS, adrn, majority, rdn, sqrn, xorn
from .expand import expand, expand_cube
from .irredundant import irredundant
from .minimize import EspressoStats, cover_cost, espresso, espresso_pla
from .pla import Pla, format_pla, parse_pla
from .reduce import reduce_cover, reduce_cube
from .verify import (
    VerificationError,
    cover_in_range,
    covers_equal,
    verify_minimization,
    verify_pla_minimization,
)

__all__ = [
    "ExactLimitError",
    "all_primes",
    "exact_minimize",
    "CLASSICS",
    "adrn",
    "majority",
    "rdn",
    "sqrn",
    "xorn",
    "expand",
    "expand_cube",
    "irredundant",
    "EspressoStats",
    "cover_cost",
    "espresso",
    "espresso_pla",
    "Pla",
    "format_pla",
    "parse_pla",
    "reduce_cover",
    "reduce_cube",
    "VerificationError",
    "cover_in_range",
    "covers_equal",
    "verify_minimization",
    "verify_pla_minimization",
]
