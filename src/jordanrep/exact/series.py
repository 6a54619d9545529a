"""Exact Taylor series of the elementary functions, summed where they end.

:func:`taylor` gives the coefficients of exp, sinh, cosh, ln(1+x), arctanh,
sqrt(1+x) and 1/(1+x) from their closed forms, and :func:`power_sum` sums
them on an argument whose powers vanish from some point on: a nilpotent
matrix in :mod:`jordanrep.exact.matrices`, a PBW element of positive order
in the deformation parameter in :mod:`jordanrep.ncseries`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

#: The k-th Taylor coefficient at 0 of each named function; the ``1p``
#: functions take the deviation x from 1.
_COEFFICIENT = {
    "exp": lambda k: Fraction(1, factorial(k)),
    "sinh": lambda k: Fraction(k % 2, factorial(k)),
    "cosh": lambda k: Fraction(1 - k % 2, factorial(k)),
    "ln1p": lambda k: Fraction((-1) ** (k + 1), k) if k else Fraction(0),
    "arctanh": lambda k: Fraction(k % 2, k) if k else Fraction(0),
    "inv1p": lambda k: Fraction((-1) ** k),
    "sqrt1p": lambda k: Fraction((-1) ** (k + 1) * comb(2 * k, k), 4**k * (2 * k - 1)),
}


def taylor(kind: str, count: int) -> list[Fraction]:
    """The first ``count`` Taylor coefficients of a named elementary function."""
    coefficient = _COEFFICIENT[kind]
    return [coefficient(k) for k in range(count)]


def power_sum(coeffs, x, one):
    """sum_k coeffs[k] x^k, summed up to the first power of x that is zero.

    ``x`` and ``one`` may be of any type with ``*``, ``+``, ``scale`` and
    ``is_zero``.  None when none of x, x^2, ..., x^(len(coeffs) - 1) is
    zero: the sum has not ended."""
    acc, power = one.scale(coeffs[0]), one
    for c in coeffs[1:]:
        power = power * x
        if power.is_zero:
            return acc
        if c:
            acc = acc + power.scale(c)
    return None
