"""Exact scalar, polynomial and matrix arithmetic, and Taylor coefficients."""

from .poly import BiPoly, LAM, H, as_fraction, fraction_to_str
from .series import STREAMS, stream_coefficients
from .matrices import (
    PolyMatrix,
    TensorSum,
    anticommutator,
    commutator,
    nilpotent_apply,
)

__all__ = [
    "BiPoly",
    "LAM",
    "H",
    "as_fraction",
    "fraction_to_str",
    "STREAMS",
    "stream_coefficients",
    "PolyMatrix",
    "TensorSum",
    "anticommutator",
    "commutator",
    "nilpotent_apply",
]
