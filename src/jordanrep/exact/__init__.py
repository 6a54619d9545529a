"""Exact scalar, polynomial and matrix arithmetic, and the Taylor series
of the elementary functions with one loop that sums them over powers."""

from .poly import BiPoly, LAM, ONE, ZERO, as_fraction
from .series import power_sum, taylor
from .matrices import PolyMatrix, TensorSum, anticommutator, commutator

__all__ = [
    "BiPoly",
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
]
