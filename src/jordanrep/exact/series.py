"""Exact Taylor series of the elementary functions, summed where they end.

:func:`taylor` gives the coefficients of exp, sinh, cosh, ln(1+x), arctanh,
sqrt(1+x) and 1/(1+x) from their closed forms, and :func:`power_sum` sums
several of them over the powers of one argument whose powers vanish from
some point on: h times the strictly upper triangular X of a Verma-basis
or JSON irrep, for its cosh and sinh (:mod:`jordanrep.irrep`), a PBW element
of positive order in the deformation parameter in :mod:`jordanrep.ncseries`.
The map-route irrep sums every series, cosh and sinh included, as bands of
J+ instead (:func:`jordanrep.irrep.map_to_deformed`).
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


def power_sum(series, x, one):
    """[sum_k c[k] x^k for each coefficient list c of ``series``], all
    summed over one sequence of powers of x, up to the first that is zero.

    ``x`` and ``one`` may be of any type with ``*``, ``+``, ``scale`` and
    ``is_zero``; the lists are equally long.  None when none of x, x^2, ...,
    x^(len - 1) is zero: the sums have not ended."""
    sums, power = [one.scale(c[0]) for c in series], one
    for k in range(1, len(series[0])):
        power = power * x
        if power.is_zero:
            return sums
        for i, c in enumerate(series):
            if c[k]:
                sums[i] = sums[i] + power.scale(c[k])
    return None
