"""Exact Taylor coefficients of the elementary functions.

The coefficients of exp, sinh, cosh, ln(1+x), arctanh, sqrt(1+x) and
1/(1+x) are generated on demand from rational recurrences and shared by the
terminating matrix series in :mod:`jordanrep.exact.matrices` and the PBW
series in :mod:`jordanrep.ncseries`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator

# -- elementary coefficient streams ---------------------------------------


def exp_stream() -> Iterator[Fraction]:
    c = Fraction(1)
    k = 0
    while True:
        yield c
        k += 1
        c /= k


def sinh_stream() -> Iterator[Fraction]:
    c = Fraction(1)
    k = 0
    while True:
        yield Fraction(0) if k % 2 == 0 else c
        k += 1
        c /= k


def cosh_stream() -> Iterator[Fraction]:
    c = Fraction(1)
    k = 0
    while True:
        yield c if k % 2 == 0 else Fraction(0)
        k += 1
        c /= k


def ln1p_stream() -> Iterator[Fraction]:
    # ln(1+x) = x - x^2/2 + x^3/3 - ...
    yield Fraction(0)
    k = 1
    while True:
        yield Fraction((-1) ** (k + 1), k)
        k += 1


def arctanh_stream() -> Iterator[Fraction]:
    # arctanh(x) = x + x^3/3 + x^5/5 + ...
    k = 0
    while True:
        yield Fraction(0) if k % 2 == 0 else Fraction(1, k)
        k += 1


def binomial_stream(alpha: Fraction) -> Iterator[Fraction]:
    # (1+x)^alpha, c_k = c_{k-1} (alpha - k + 1) / k
    c = Fraction(1)
    k = 0
    while True:
        yield c
        k += 1
        c = c * (alpha - k + 1) / k


def sqrt1p_stream() -> Iterator[Fraction]:
    return binomial_stream(Fraction(1, 2))


def inv1p_stream() -> Iterator[Fraction]:
    return binomial_stream(Fraction(-1))


#: Registry of named coefficient streams.  Each entry is a zero-argument
#: callable returning a fresh iterator of exact Taylor coefficients at 0
#: (for the `1p` variants, at argument 1 written as 1 + x).
STREAMS: dict[str, Callable[[], Iterator[Fraction]]] = {
    "exp": exp_stream,
    "sinh": sinh_stream,
    "cosh": cosh_stream,
    "ln1p": ln1p_stream,
    "arctanh": arctanh_stream,
    "sqrt1p": sqrt1p_stream,
    "inv1p": inv1p_stream,
}


def stream_coefficients(kind: str, count: int) -> list[Fraction]:
    """The first ``count`` Taylor coefficients of a named elementary function."""
    it = STREAMS[kind]()
    return [next(it) for _ in range(count)]
