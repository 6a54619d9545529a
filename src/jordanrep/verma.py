"""Matrix elements of the deformed raising and Cartan actions on a Verma module.

The module basis is w_n = Y^n w_0 with w_0 the highest-weight vector.  The
actions of X and H step down the ladder in even gaps,

    X.w_n = sum_k X_n^{n-1-2k} w_{n-1-2k},
    H.w_n = sum_k H_n^{n-2k}   w_{n-2k},

and every element X_{m+2n+1}^m, H_{m+2n}^m is homogeneous of degree 2n in the
deformation parameter.  Elements at h-degree 0 are

    H_n^n = lam - 2n,          X_{n+1}^n = (n+1)(lam - n),

and the higher orders follow from two recursions: the degree-2n part of H is
a combinatorial sum of ordered products of lower-degree X elements (one
product per composition of 2n into an even number of positive odd integers),
and the same-degree X elements are partial sums of H elements, at degree 0
too, since (m+1)(lam - m) = sum_{k<=m} (lam - 2k):

    H_{m+2n}^m = - sum_{k=1}^{n} h^{2k}/(2k)! *
                   sum'_{compositions} ( 2 sum_{l<m} Z_l + Z_m ),
    X_{m+2n+1}^m = sum_{k=0}^{m} H_{k+2n}^k,

where Z_l is the descending product of X elements from level l+2n to level l
prescribed by the composition.  The table stores each element as its
coefficient of h^{2n} alone, since (kind, n, m) fixes the power, and puts
h^{2n} back only on output (:meth:`ElementTable.stored_items`).  The
recursion only adds, multiplies and tests for zero, and putting a value in
for lam is a ring homomorphism, so it runs over whichever ring holds lam:
polynomials in lam when lam is the symbol LAM, or the rationals when lam is a
Fraction, as for the irreps at lam = 2j.

The tests check the recursion against independent closed forms of the
degree-2 and degree-4 elements.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial

from .exact import BiPoly, LAM


def odd_compositions(total: int, num_parts: int) -> list[tuple[int, ...]]:
    """All ordered tuples of ``num_parts`` positive odd integers summing to
    ``total``, in lexicographic order.  Order matters: (7,1) and (1,7) are
    distinct compositions."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int, parts_left: int):
        if parts_left == 1:
            if remaining >= 1 and remaining % 2 == 1:
                out.append(prefix + (remaining,))
            return
        # each later part is odd >= 1, so at most remaining - (parts_left - 1)
        for part in range(1, remaining - (parts_left - 1) + 1, 2):
            extend(prefix + (part,), remaining - part, parts_left - 1)

    extend((), total, num_parts)
    return out


class ElementTable:
    """Memoized h-coefficients of the X and H actions up to a maximum level.

    A completed table is immutable by contract: the operations below only
    read from it.  Every value lies in the ring of lam, whose zero and one
    the table keeps; accessors return that zero for index pairs ruled out by
    parity or range (the action never maps below w_0); above the maximum
    level, their dict raises KeyError."""

    def __init__(self, lam):
        self.lam = lam
        self.zero = lam - lam
        self.one = self.zero + 1
        self._H: dict[tuple[int, int], object] = {}
        self._X: dict[tuple[int, int], object] = {}

    def H(self, n: int, m: int):
        """The coefficient of h^{n-m} in H_n^m."""
        if m < 0 or m > n or (n - m) % 2:
            return self.zero
        return self._H[(n, m)]

    def X(self, n: int, m: int):
        """The coefficient of h^{n-m-1} in X_n^m."""
        if m < 0 or m >= n or (n - m) % 2 == 0:
            return self.zero
        return self._X[(n, m)]

    def stored_items(self):
        """((kind, n, m), element) pairs for everything the table holds, each
        element a polynomial with its power of h put back."""
        for kind, store, shift in (("H", self._H, 0), ("X", self._X, 1)):
            for (n, m), v in sorted(store.items()):
                yield (kind, n, m), BiPoly({(0, n - m - shift): 1}) * v


def z_product(m: int, two_n: int, comp: tuple[int, ...], table: ElementTable):
    """Ordered product of X elements descending from level m+2n to m by the
    steps of the composition; zero as soon as one factor is."""
    level = m + two_n
    acc = table.one
    for step in comp:
        nxt = level - step
        factor = table.X(level, nxt)
        if factor == 0:
            return table.zero
        acc = acc * factor
        level = nxt
    return acc


def composition_sums(l: int, two_n: int, table: ElementTable) -> list:
    """Z_l summed over the compositions of 2n into 2k odd parts, one sum for
    each k = 1..n."""
    out = []
    for k in range(1, two_n // 2 + 1):
        acc = table.zero
        for comp in odd_compositions(two_n, 2 * k):
            z = z_product(l, two_n, comp, table)
            if z != 0:
                acc = acc + z
        out.append(acc)
    return out


def h_column(two_n: int, count: int, table: ElementTable) -> list:
    """The h^{2n}-coefficients of H_{m+2n}^m for m = 0..count-1 from the
    reorganized recursion, where h^{2k}/(2k)! contributes 1/(2k)!.  Z_l
    enters every H with m >= l, so its composition sums are computed once
    and carried along as running sums over l < m.  Needs every X element of
    h-degree below 2n to be present already."""
    if two_n == 0:
        return [table.lam - 2 * m for m in range(count)]
    below = [table.zero] * (two_n // 2)
    out = []
    for m in range(count):
        here = composition_sums(m, two_n, table)
        acc = table.zero
        for k, (lower, z) in enumerate(zip(below, here), start=1):
            acc = acc + (2 * lower + z) * Fraction(-1, factorial(2 * k))
        out.append(acc)
        below = [a + b for a, b in zip(below, here)]
    return out


def build_table(max_level: int, lam=LAM) -> ElementTable:
    """Fill all H_n^m, X_n^m with n <= max_level, in increasing h-degree, over
    the ring of lam: the symbol LAM or an exact Fraction."""
    table = ElementTable(lam)
    for two_n in range(0, max_level + 1, 2):
        column = h_column(two_n, max_level - two_n + 1, table)
        for m, value in enumerate(column):
            table._H[(m + two_n, m)] = value
        for m, value in enumerate(accumulate(column[:-1])):   # X as partial sums of H
            table._X[(m + two_n + 1, m)] = value
    return table
