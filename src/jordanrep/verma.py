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
and the same-degree X elements are partial sums of H elements:

    H_{m+2n}^m = - sum_{k=1}^{n} h^{2k}/(2k)! *
                   sum'_{compositions} ( 2 sum_{l<m} Z_l + Z_m ),
    X_{m+2n+1}^m = sum_{k=0}^{m} H_{k+2n}^k,

where Z_l is the descending product of X elements from level l+2n to level l
prescribed by the composition.  The weight symbol stays symbolic throughout;
specialization happens only at singular-vector solve time.

The tests check the recursion against independent closed forms of the
degree-2 and degree-4 elements.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import BadParity, MissingElement
from .exact import BiPoly, LAM, ONE, ZERO


def odd_compositions(total: int, num_parts: int) -> list[tuple[int, ...]]:
    """All ordered tuples of ``num_parts`` positive odd integers summing to
    ``total``, in lexicographic order.  Order matters: (7,1) and (1,7) are
    distinct compositions."""
    if total % 2 or num_parts % 2:
        raise BadParity(f"total={total} and num_parts={num_parts} must both be even")
    if total < 2 or num_parts < 2:
        raise ValueError("total and num_parts must be positive")
    if num_parts > total:
        raise ValueError("cannot split a total among more parts than its size")
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
    """Memoized matrix elements of the X and H actions up to a maximum level.

    A completed table is immutable by contract: the operations below only
    read from it.  Accessors return the zero polynomial for index pairs ruled
    out by parity or range (the action never maps below w_0)."""

    def __init__(self, max_level: int):
        self.max_level = max_level
        self._H: dict[tuple[int, int], BiPoly] = {}
        self._X: dict[tuple[int, int], BiPoly] = {}

    def H(self, n: int, m: int) -> BiPoly:
        if m < 0 or m > n or (n - m) % 2:
            return ZERO
        try:
            return self._H[(n, m)]
        except KeyError:
            raise MissingElement(f"H_{n}^{m} is not in the table (L={self.max_level})")

    def X(self, n: int, m: int) -> BiPoly:
        if m < 0 or m >= n or (n - m) % 2 == 0:
            return ZERO
        try:
            return self._X[(n, m)]
        except KeyError:
            raise MissingElement(f"X_{n}^{m} is not in the table (L={self.max_level})")

    def stored_items(self):
        """((kind, n, m), value) pairs for everything the table holds."""
        for (n, m), v in sorted(self._H.items()):
            yield ("H", n, m), v
        for (n, m), v in sorted(self._X.items()):
            yield ("X", n, m), v


def z_product(m: int, two_n: int, comp: tuple[int, ...], table: ElementTable) -> BiPoly:
    """Ordered product of X elements descending from level m+2n to m by the
    steps of the composition; zero as soon as one factor is."""
    level = m + two_n
    acc = ONE
    for step in comp:
        nxt = level - step
        factor = table.X(level, nxt)
        if factor.is_zero:
            return ZERO
        acc = acc * factor
        level = nxt
    return acc


def composition_sums(l: int, two_n: int, table: ElementTable) -> list[BiPoly]:
    """Z_l summed over the compositions of 2n into 2k odd parts, one sum for
    each k = 1..n."""
    out = []
    for k in range(1, two_n // 2 + 1):
        acc = ZERO
        for comp in odd_compositions(two_n, 2 * k):
            z = z_product(l, two_n, comp, table)
            if not z.is_zero:
                acc = acc + z
        out.append(acc)
    return out


def h_column(two_n: int, count: int, table: ElementTable) -> list[BiPoly]:
    """H_{m+2n}^m for m = 0..count-1 from the reorganized recursion.  Z_l
    enters every H with m >= l, so its composition sums are computed once
    and carried along as running sums over l < m.  Needs every X element of
    h-degree below 2n to be present already."""
    if two_n == 0:
        return [LAM - 2 * m for m in range(count)]
    below = [ZERO] * (two_n // 2)
    out = []
    for m in range(count):
        here = composition_sums(m, two_n, table)
        acc = ZERO
        for k, (lower, z) in enumerate(zip(below, here), start=1):
            inner = lower.scale(2) + z
            acc = acc + inner.scale(Fraction(-1, factorial(2 * k))).mul_h(2 * k)
        out.append(acc)
        below = [a + b for a, b in zip(below, here)]
    return out


def x_element(m: int, two_n: int, table: ElementTable) -> BiPoly:
    """X_{m+2n+1}^m as the partial sum of same-degree H elements."""
    if two_n == 0:
        return BiPoly.const(m + 1) * (LAM - m)
    acc = ZERO
    for k in range(m + 1):
        acc = acc + table.H(k + two_n, k)
    return acc


def build_table(max_level: int) -> ElementTable:
    """Fill all H_n^m, X_n^m with n <= max_level, in increasing h-degree."""
    table = ElementTable(max_level)
    for two_n in range(0, max_level + 1, 2):
        for m, value in enumerate(h_column(two_n, max_level - two_n + 1, table)):
            table._H[(m + two_n, m)] = value
        for m in range(0, max_level - two_n):
            table._X[(m + two_n + 1, m)] = x_element(m, two_n, table)
    return table
