"""Exact bivariate polynomials in the weight symbol and the deformation parameter.

A :class:`BiPoly` is a polynomial in two commuting formal symbols -- ``lam``
(the highest weight, printed as a lambda) and ``h`` (the deformation
parameter) -- with arbitrary-precision rational coefficients.  The symbolic
element table computes in lam alone, since its indices fix each power of h;
output, failure reports and --from-json input use the full form c lam^a h^b.
A :class:`BiPoly` stores a canonical term map
``(deg_lam, deg_h) -> Fraction`` with no zero coefficients, so two
polynomials are equal exactly when their term maps are equal.  All arithmetic
is exact; nothing here ever rounds.

The JSON encoding used throughout the command-line output is::

    rational  ->  "p/q" decimal string ("-42", "-21/2")
    BiPoly    ->  [{"c": "p/q", "l": deg_lam, "h": deg_h}, ...]

with terms sorted by ``(l, h)``.
"""

from __future__ import annotations

from fractions import Fraction


#: Largest magnitude of a decimal exponent that :func:`rational` reads:
#: `Fraction` builds 10^e exactly (2.9 s at e = 4e6), and 10^1000 is far past
#: the float range, whose refusals by the spectrum scan keep their message.
MAX_EXPONENT = 1000


def ascii_number(text: str) -> str:
    """text, or ValueError if it holds "_", a non-ASCII character, a space or a
    leading "+", all of which ``int`` and ``Fraction`` read but a spin refuses."""
    if "_" in text or not text.isascii() or text.split() != [text.lstrip("+")]:
        raise ValueError(f"{text!r} is not ASCII digits with no '_', space or leading '+'")
    return text


def rational(text: str) -> Fraction:
    """Outside text -- an integer, "p/q" or a decimal such as "-0.7" or "1e-20",
    as :func:`ascii_number` allows it -- as a Fraction.  An exponent above
    MAX_EXPONENT in magnitude (checked before Fraction) and a zero denominator
    raise ValueError."""
    _, e, exponent = ascii_number(text).lower().partition("e")
    if e and abs(int(exponent)) > MAX_EXPONENT:
        raise ValueError(f"{text!r} has an exponent above {MAX_EXPONENT} in magnitude")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def as_fraction(value) -> Fraction:
    """An int or a Fraction as a Fraction; anything else (a float above all)
    raises TypeError, since text is read by :func:`rational`."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class BiPoly:
    """Polynomial in ``lam`` and ``h`` over the rationals, in canonical form."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        canon = {}
        if terms:
            for (dl, dh), c in terms.items():
                c = as_fraction(c)
                if c == 0:
                    continue
                if dl < 0 or dh < 0:
                    raise ValueError("exponents must be nonnegative")
                canon[(dl, dh)] = c
        self._terms = canon

    # -- mapping access ----------------------------------------------------

    def items(self):
        return self._terms.items()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for key, c in other._terms.items():
            c0 = out.get(key)
            if c0 is None:
                out[key] = c
            else:
                c0 = c0 + c
                if c0 == 0:
                    del out[key]
                else:
                    out[key] = c0
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return ZERO
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for (la, ha), ca in a.items():
            for (lb, hb), cb in b.items():
                key = (la + lb, ha + hb)
                c0 = out.get(key)
                if c0 is None:
                    out[key] = ca * cb
                else:
                    c0 = c0 + ca * cb
                    if c0 == 0:
                        del out[key]
                    else:
                        out[key] = c0
        return _wrap(out)

    __rmul__ = __mul__

    # -- canonical comparisons ----------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    # -- serialization -------------------------------------------------------

    def to_obj(self) -> list:
        return [
            {"c": str(self._terms[key]), "l": key[0], "h": key[1]}
            for key in sorted(self._terms)
        ]

    @staticmethod
    def from_obj(obj) -> "BiPoly":
        """From the JSON encoding, whose exponents must be ints (not bools),
        each (l, h) at most once, and whose coefficients must be "p/q"
        strings."""
        for t in obj:
            if type(t["l"]) is not int or type(t["h"]) is not int:
                raise ValueError(f"exponents must be integers, got l={t['l']!r} h={t['h']!r}")
            if type(t["c"]) is not str:
                raise ValueError(f'coefficients must be "p/q" strings, got c={t["c"]!r}')
        terms = {(t["l"], t["h"]): rational(t["c"]) for t in obj}
        if len(terms) != len(obj):
            raise ValueError("a polynomial lists a repeated term (l, h)")
        return BiPoly(terms)

    def write(self, number, symbols, power: str, join: str) -> str:
        """A signed sum of terms, highest degrees first.  A term is its
        coefficient's absolute value as ``number`` writes it, left out when
        it is 1 before a symbol, then each of the two ``symbols`` of nonzero
        degree (a degree above 1 put in by the format string ``power``), all
        joined by ``join``; a leading minus is glued to its term."""
        if not self._terms:
            return "0"
        text = ""
        for (dl, dh), c in sorted(self._terms.items(), reverse=True):
            factors = [sym if d == 1 else power.format(sym, d)
                       for sym, d in zip(symbols, (dl, dh)) if d]
            if abs(c) != 1 or not factors:
                factors.insert(0, number(abs(c)))
            text += (" - " if c < 0 else " + ") + join.join(factors)
        return ("-" if text.startswith(" -") else "") + text[3:]

    def __str__(self):
        return self.write(str, ("lam", "h"), "{}^{}", "*")

    def __repr__(self):
        return f"BiPoly({self})"


def _wrap(canon: dict) -> BiPoly:
    p = BiPoly.__new__(BiPoly)
    p._terms = canon
    return p


def _coerce(value):
    if isinstance(value, BiPoly):
        return value
    if isinstance(value, (int, Fraction)):
        if value == 0:
            return ZERO
        return BiPoly({(0, 0): as_fraction(value)})
    return NotImplemented


ZERO = _wrap({})
#: The weight symbol, ready to use.
LAM = _wrap({(1, 0): Fraction(1)})
