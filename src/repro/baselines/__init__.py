"""Baseline encoders the paper compares against."""

from .enc import EncBudgetExceeded, EncResult, enc_encode
from .nova import NovaResult, nova_encode, state_affinity
from .simple import (
    best_random_encoding,
    gray_encoding,
    natural_encoding,
    random_encoding,
)

__all__ = [
    "EncBudgetExceeded",
    "EncResult",
    "enc_encode",
    "NovaResult",
    "nova_encode",
    "state_affinity",
    "best_random_encoding",
    "gray_encoding",
    "natural_encoding",
    "random_encoding",
]
