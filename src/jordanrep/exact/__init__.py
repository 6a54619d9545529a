"""Exact scalar, polynomial and matrix arithmetic, and Taylor coefficients."""

from .poly import BiPoly, H, LAM, ONE, ZERO, as_fraction
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
    "H",
    "LAM",
    "ONE",
    "ZERO",
    "as_fraction",
    "STREAMS",
    "stream_coefficients",
    "PolyMatrix",
    "TensorSum",
    "anticommutator",
    "commutator",
    "nilpotent_apply",
]
