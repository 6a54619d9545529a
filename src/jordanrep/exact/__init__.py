"""Exact scalar, polynomial and matrix arithmetic, and the Taylor series
of the elementary functions, summed on nilpotent matrices and PBW series."""

from .poly import BiPoly, H, LAM, ONE, ZERO, as_fraction
from .series import power_sum, taylor
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
    "power_sum",
    "taylor",
    "PolyMatrix",
    "TensorSum",
    "anticommutator",
    "commutator",
    "nilpotent_apply",
]
