"""PBW normal ordering over truncated power series in the deformation parameter.

Elements of an enveloping algebra are held in Poincare-Birkhoff-Witt normal
form: a map from (exponent vector over a fixed, ordered generator list,
power of the deformation parameter) to an int numerator over one common
denominator, with every power above a known truncation order left unknown.
The structure constants are integers, so all arithmetic runs on ints.

Each (exponent vector, power) pair is one int key: the exponent of
generator i fills a FIELD_BITS-wide field, generator 0 the highest, and the
power sits above them all, so keys compare as (power, exponent tuple) and
truncation is one comparison.  The top bit of each generator field is a
guard bit that stored exponents stay below, so adding two keys never
carries between fields, and a sum that reaches a guard bit raises
ValueError.  A product pairs the monomials of its operands.  The letters
a key holds are read off it by arithmetic, as a set of guard bits: adding
``carry`` (all ones below each guard bit) sets the guard bit of exactly the
nonzero fields, and no carry crosses a field since stored exponents stay
below it (the field test of Warren, Hacker's Delight, 6-1).  ``blocked``
maps each such set to the letters that its letters do not commute with from
the right.  When the blocked set of the left monomial misses the held set
of the right one, the letters slide past each other and the keys add.
Every other pair is built, through one cache, from shorter pairs.

The presentations used here are the *classical* Euclidean algebras: the
deformed generators are defined as nonlinear series in the classical ones,
and the deformed relations are then verified order by order.  A suite's
residuals are exact rational series; "pass" means identically zero through
at least the requested truncation order.

PBW generator order: J+ < J0 < J- < Pi+ < Pi0 < Pi- for the rank-two case,
and J < P+ < P- for the planar one.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_

from .errors import InputError
from .exact import power_sum, taylor
from .exact.poly import as_fraction
from .report import VerificationReport

# -- presentations ------------------------------------------------------------

#: Bits per generator field of a packed key; the top one is the guard bit.
FIELD_BITS = 16
_FIELD = (1 << FIELD_BITS) - 1
_GUARD = 1 << (FIELD_BITS - 1)


class AlgebraPresentation:
    """Ordered generators plus their Lie brackets [g_a, g_b] for a > b.

    ``rules`` maps ``(a, b)`` to ``{c: k}`` over generator indices, meaning
    [g_a, g_b] = sum k g_c, and is held packed, as ``{(units[a], units[b]):
    {units[c]: k}}``.  The structure constants k must be ints, so normal
    ordering runs on ints.  An absent pair means the generators commute.
    The Jacobi identity is checked on all triples at construction.  ``(key
    + carry) & guard`` is the set of letters a key holds, and ``blocked``
    maps each of the 2^size letter sets to the letters that its letters do
    not commute with from the right, both as guard bits (see the module
    docstring)."""

    def __init__(self, names, rules):
        self.names = tuple(names)
        self.size = len(self.names)
        self.offsets = tuple(FIELD_BITS * i for i in reversed(range(self.size)))
        self.units = tuple(1 << s for s in self.offsets)
        self.shift = FIELD_BITS * self.size       # the power field
        self.letters = (1 << self.shift) - 1      # the generator fields
        self.guard = sum(_GUARD << s for s in self.offsets)
        self.carry = sum((_GUARD - 1) << s for s in self.offsets)
        self.rules: dict[tuple[int, int], dict[int, int]] = {}
        for (a, b), combo in rules.items():
            if not (0 <= b < a < self.size):
                raise ValueError(f"rule pair {(a, b)} must satisfy a > b")
            if not all(0 <= c < self.size for c in combo):
                raise ValueError(f"rule pair {(a, b)} names a foreign generator")
            if any(type(k) is not int for k in combo.values()):
                raise ValueError(f"rule pair {(a, b)} has a non-integer structure constant")
            if any(combo.values()):
                self.rules[(self.units[a], self.units[b])] = {
                    self.units[c]: k for c, k in combo.items() if k}
        self.blocked = {0: 0}
        for u in self.units:
            row = sum(y << (FIELD_BITS - 1) for x, y in self.rules if x == u)
            self.blocked.update({s | u << (FIELD_BITS - 1): t | row
                                 for s, t in self.blocked.items()})
        for x, y, z in combinations(self.units, 3):
            total: dict[int, int] = {}
            for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
                for m, k in self._bracket(self._bracket({u: 1}, {v: 1}), {w: 1}).items():
                    total[m] = total.get(m, 0) + k
            if any(total.values()):
                a, b, c = map(self.units.index, (x, y, z))
                raise ValueError(f"Jacobi identity fails on generators {a},{b},{c}")

    def _bracket(self, u: dict, v: dict) -> dict:
        """[u, v] of two combinations {unit key: int} of generators, read
        off the rules in either order of each pair."""
        out: dict[int, int] = {}
        for x, a in u.items():
            for y, b in v.items():
                for z, k in self.rules.get((x, y), {}).items():
                    out[z] = out.get(z, 0) + a * b * k
                for z, k in self.rules.get((y, x), {}).items():
                    out[z] = out.get(z, 0) - a * b * k
        return out

    def monomial_str(self, mono: int) -> str:
        """The generator word of a packed monomial (the power bits are ignored)."""
        parts = []
        for name, s in zip(self.names, self.offsets):
            e = mono >> s & _FIELD
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


@lru_cache(maxsize=1)
def e2_presentation() -> AlgebraPresentation:
    """Classical planar Euclidean algebra: [J, P+-] = +-P+-, [P+, P-] = 0."""
    J, PP, PM = 0, 1, 2
    return AlgebraPresentation(("J", "P+", "P-"), {(PP, J): {PP: -1}, (PM, J): {PM: 1}})


@lru_cache(maxsize=1)
def e3_presentation() -> AlgebraPresentation:
    """Classical three-dimensional Euclidean algebra with commuting
    translations (Pi+, Pi0, Pi-) and the rotation triple (J+, J0, J-)."""
    JP, J0, JM, PP, P0, PM = range(6)
    return AlgebraPresentation(
        names=("J+", "J0", "J-", "Pi+", "Pi0", "Pi-"),
        rules={
            (J0, JP): {JP: 2},
            (JM, JP): {J0: -1},
            (JM, J0): {JM: 2},
            (PP, J0): {PP: -2},
            (PP, JM): {P0: 1},
            (P0, JP): {PP: 2},
            (P0, JM): {PM: -2},
            (PM, JP): {P0: -1},
            (PM, J0): {PM: 2},
        },
    )


# -- normal ordering -----------------------------------------------------------


def _check_guard(keys: int, p: AlgebraPresentation):
    """ValueError when the bitwise or of some keys reaches a guard bit."""
    if keys & p.guard:
        raise ValueError("an exponent reached the guard bit of its field")


def _pair(ma: int, mb: int, p: AlgebraPresentation) -> dict:
    """Normal form of the product of two packed normal-ordered monomials, as
    packed monomial -> int coefficient.  When no inverted letter pair (a in
    ma, b in mb, a > b) has a bracket, the letters slide past each other
    and the product is the sum of the keys; other pairs come from the cache.
    A blocked set holds guard bits only, so mb + carry needs no mask."""
    if p.blocked[(ma + p.carry) & p.guard] & (mb + p.carry):
        return _normal_order_cached(ma, mb, p)
    _check_guard(ma + mb, p)
    return {ma + mb: 1}


def _times(left: dict, mb: int, p: AlgebraPresentation) -> dict:
    """The combination left = {monomial: c} times the monomial mb; cancelled
    terms are kept as zeros."""
    out: dict[int, int] = {}
    for mono, c in left.items():
        for m, e in _pair(mono, mb, p).items():
            out[m] = out.get(m, 0) + c * e
    return out


@lru_cache(maxsize=None)
def _normal_order_cached(ma: int, mb: int, p: AlgebraPresentation):
    """The normal form of a bracketed pair (see :func:`_pair`), built from
    shorter pairs: the lowest letter y of mb goes first, ma.mb = (ma.y).mb',
    and a single letter y passes the highest letter x of ma, which is above
    it, by ma'.x.y = (ma'.y).x + ma'.[x, y].  Every pair asked for is
    shorter than (ma, mb), or as long with a shorter right factor, or the
    full-length term of ma'.y times x, whose letters slide; so the
    recursion ends."""
    y = 1 << (((mb + p.carry) & p.guard).bit_length() - FIELD_BITS)  # as a unit key
    if mb != y:
        out = _times(_pair(ma, y, p), mb - y, p)
    else:
        held_a = (ma + p.carry) & p.guard
        x = (held_a & -held_a) >> (FIELD_BITS - 1)
        rest = ma - x
        out = _times(_pair(rest, mb, p), x, p)
        for z, c in p.rules.get((x, y), {}).items():
            for m, e in _pair(rest, z, p).items():
                out[m] = out.get(m, 0) + c * e
    return {m: c for m, c in out.items() if c}


# -- elements --------------------------------------------------------------------


def _element(p: AlgebraPresentation, order: int, terms: dict, den: int) -> "NCElement":
    """An element from terms already in canonical form over den."""
    el = NCElement.__new__(NCElement)
    el.presentation, el.order, el.terms, el.den = p, order, terms, den
    return el


def _reduced(p: AlgebraPresentation, order: int, terms: dict, den: int) -> "NCElement":
    """terms / den (den > 0) with the zero numerators dropped, brought to
    canonical form by their common factor."""
    terms = {key: n for key, n in terms.items() if n}
    g = math.gcd(den, *terms.values())
    if g == 1:
        return _element(p, order, terms, den)
    return _element(p, order, {key: n // g for key, n in terms.items()}, den // g)


class NCElement:
    """Normal-ordered polynomial in the generators with series coefficients.

    ``terms`` maps the packed key of (monomial, power of the deformation
    parameter) to a nonzero int numerator over the one positive denominator
    ``den``, in canonical form: no factor is common to ``den`` and every
    numerator, and the zero element has den 1.  Powers above ``order`` are
    unknown, not zero: they are never stored, and arithmetic between
    elements of different orders keeps the smaller one."""

    __slots__ = ("presentation", "order", "terms", "den")

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def one(p: AlgebraPresentation, order: int) -> "NCElement":
        return _element(p, order, {0: 1}, 1)

    @staticmethod
    def generator(p: AlgebraPresentation, name: str, order: int) -> "NCElement":
        return _element(p, order, {p.units[p.names.index(name)]: 1}, 1)

    # -- ring operations ----------------------------------------------------------

    def _merge(self, other, sign: int) -> "NCElement":
        if self.presentation is not other.presentation:
            raise ValueError("elements live over different presentations")
        order = min(self.order, other.order)
        limit = (order + 1) << self.presentation.shift
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = {key: n * fa for key, n in self.terms.items() if key < limit}
        for key, n in other.terms.items():
            if key < limit:
                out[key] = out.get(key, 0) + n * fb
        return _reduced(self.presentation, order, out, den)

    def __add__(self, other):
        return self._merge(other, +1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return _element(self.presentation, self.order,
                        {key: -n for key, n in self.terms.items()}, self.den)

    def __mul__(self, other):
        if not isinstance(other, NCElement):
            return NotImplemented
        if self.presentation is not other.presentation:
            raise ValueError("elements live over different presentations")
        p = self.presentation
        order = min(self.order, other.order)
        limit, letters, carry, guard, blocked = (
            (order + 1) << p.shift, p.letters, p.carry, p.guard, p.blocked)
        # by key, hence by power, so that each row of pairs stops at the order;
        # the power field does not disturb the letter set of a key
        right = [(kb, b, kb & letters, (kb + carry) & guard)
                 for kb, b in sorted(other.terms.items())]
        out: defaultdict[int, int] = defaultdict(int)
        for ka, a in self.terms.items():
            ma = ka & letters
            blocks = blocked[(ka + carry) & guard]
            for kb, b, mb, held in right:
                k = ka + kb
                if k >= limit:
                    break
                if blocks & held:  # a bracketed pair, its normal form shifted to power k
                    ab, power = a * b, k - ma - mb
                    for m, c in _normal_order_cached(ma, mb, p).items():
                        out[m + power] += c * ab
                else:  # the letters slide past each other
                    out[k] += a * b
        _check_guard(reduce(or_, out, 0), p)
        return _reduced(p, order, out, self.den * other.den)

    def scale(self, q) -> "NCElement":
        q = as_fraction(q)
        return _reduced(self.presentation, self.order,
                        {key: n * q.numerator for key, n in self.terms.items()},
                        self.den * q.denominator)

    def mul_t(self, k: int = 1) -> "NCElement":
        """Multiply by the k-th power of the deformation parameter."""
        step = k << self.presentation.shift
        return _element(self.presentation, self.order + k,
                        {key + step: n for key, n in self.terms.items()}, self.den)

    def div_t(self, k: int = 1) -> "NCElement":
        """Exact division; every term must carry at least the k-th power."""
        step = k << self.presentation.shift
        if min(self.terms, default=step) < step:
            raise ValueError(f"element is not divisible by t^{k}")
        return _element(self.presentation, self.order - k,
                        {key - step: n for key, n in self.terms.items()}, self.den)

    # -- queries ---------------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def valuation_positive(self) -> bool:
        """True when every term carries a positive power of the parameter."""
        step = 1 << self.presentation.shift
        return min(self.terms, default=step) >= step

    def first_nonzero(self):
        """(monomial string, order, coefficient) of the nonzero term of lowest
        order, the least monomial breaking ties; None if zero."""
        if not self.terms:
            return None
        p, key = self.presentation, min(self.terms)
        return (p.monomial_str(key), key >> p.shift, Fraction(self.terms[key], self.den))

    def __str__(self):
        if not self.terms:
            return "0"
        p = self.presentation
        return " + ".join(
            f"{Fraction(n, self.den)}*t^{key >> p.shift}*{p.monomial_str(key)}"
            for key, n in sorted(self.terms.items(), key=lambda kn: (kn[0] & p.letters, kn[0]))
        )

    __repr__ = __str__


def commutator_nc(a: NCElement, b: NCElement) -> NCElement:
    return a * b - b * a


def series_function_apply(x: NCElement, *kinds) -> list[NCElement]:
    """[f(x) for each kind f, the name of an elementary function], fully
    normal-ordered and summed over one sequence of powers of x.

    The argument must have strictly positive valuation in the deformation
    parameter, so that x^(order + 1) is zero and the power sum ends.  The
    `1p` function tags take the deviation from 1 (ln(1+x), sqrt(1+x),
    1/(1+x))."""
    if not x.valuation_positive():
        raise ValueError("a series needs an argument of positive order "
                         "in the deformation parameter")
    series = [taylor(f, x.order + 2) for f in kinds]
    return power_sum(series, x, NCElement.one(x.presentation, x.order))


# -- verification suites ------------------------------------------------------------
#
# Each suite works at an internal truncation a few orders above the requested
# one, so the exact divisions by the deformation parameter still leave every
# residual known to at least the requested order.

_SLACK = 4


def _series_suite(name: str, order: int, p: AlgebraPresentation, w: int):
    """A suite's empty report, with 1 and the generators of ``p`` in PBW
    order at the internal truncation ``w``."""
    report = VerificationReport(
        f"{name} order={order}",
        meta={"pbw_order": " < ".join(p.names), "truncation_order": order},
    )
    return report, NCElement.one(p, w), [NCElement.generator(p, g, w) for g in p.names]


def suite_e2(order: int) -> VerificationReport:
    """Deformed planar Euclidean algebra via the nonlinear map on e(2).

    chi = (2/h) arctanh(h P+ / 2), eta = (1 - (h P+ / 2)^2) P-, zeta = 2J.
    Verifies the deformed brackets and the Casimir identity
    P+ P- = (eta/h) sinh(h chi), with sinh/cosh of h chi computed both by
    direct series composition and through the closed rational forms
    h P+ (1 - h^2 P+^2/4)^{-1} and (1 + h^2 P+^2/4)(1 - h^2 P+^2/4)^{-1}."""
    w = order + _SLACK
    p = e2_presentation()
    report, one, (J, pp, pm) = _series_suite("e2", order, p, w)

    chi = series_function_apply(pp.mul_t(1).scale(Fraction(1, 2)), "arctanh")[0].div_t(1).scale(2)
    quarter_sq = (pp * pp).scale(Fraction(1, 4)).mul_t(2)   # u = (h P+/2)^2
    eta = (one - quarter_sq) * pm
    zeta = J.scale(2)

    root, inv = series_function_apply(-quarter_sq, "sqrt1p", "inv1p")
    report.check_series_zero(
        "sandwich form of eta collapses: sqrt(1-u) P- sqrt(1-u) = (1-u) P-",
        root * pm * root - eta,
        order,
    )

    sinh_hchi, cosh_hchi = series_function_apply(chi.mul_t(1), "sinh", "cosh")
    sinh_closed = pp.mul_t(1) * inv
    cosh_closed = (one + quarter_sq) * inv
    report.check_series_zero(
        "sinh(h chi) matches closed rational form", sinh_hchi - sinh_closed, order
    )
    report.check_series_zero(
        "cosh(h chi) matches closed rational form", cosh_hchi - cosh_closed, order
    )

    report.check_series_zero(
        "[zeta,chi] = (2/h) sinh(h chi)",
        commutator_nc(zeta, chi) - sinh_hchi.div_t(1).scale(2),
        order,
    )
    report.check_series_zero(
        "[zeta,eta] = -2 eta cosh(h chi)",
        commutator_nc(zeta, eta) + (eta * cosh_hchi).scale(2),
        order,
    )
    report.check_series_zero("[chi,eta] = 0", commutator_nc(chi, eta), order)
    report.check_series_zero(
        "Casimir: P+ P- = (eta/h) sinh(h chi)",
        pp * pm - (eta * sinh_hchi).div_t(1),
        order,
    )
    return report


def _e3_deformed(pi_p, pi_0, pi_m):
    """The inverse-map generators P+, P0, P- over the classical presentation,
    and e^{-w P+}, which is (1 + w Pi+)^{-1} exactly since w P+ = ln(1 + w Pi+)."""
    ln, inv = series_function_apply(pi_p.mul_t(1), "ln1p", "inv1p")
    p_minus = pi_m + (pi_0 * pi_0 * inv).scale(Fraction(1, 4)).mul_t(1)
    return ln.div_t(1), pi_0 * inv, p_minus, inv


def _c1(plus, zero, minus):
    """The Casimir C1 = T+ T- + T0^2/4 of a translation triple T."""
    return plus * minus + (zero * zero).scale(Fraction(1, 4))


def _c2(jp, j0, jm, plus, zero, minus):
    """The Casimir C2 = J+ T- + J- T+ + J0 T0/2 of a translation triple T."""
    return jp * minus + jm * plus + (j0 * zero).scale(Fraction(1, 2))


def _e3_shared_checks(jp, j0, jm, p_plus, p_zero, p_minus) -> list:
    """The brackets that both deformations of e(3) keep: the classical
    rotation triple, and deformed translations that commute."""
    return [
        ("[J0,J+] = 2J+", commutator_nc(j0, jp) - jp.scale(2)),
        ("[J0,J-] = -2J-", commutator_nc(j0, jm) + jm.scale(2)),
        ("[J+,J-] = J0", commutator_nc(jp, jm) - j0),
        ("[P0,P+] = 0", commutator_nc(p_zero, p_plus)),
        ("[P0,P-] = 0", commutator_nc(p_zero, p_minus)),
        ("[P+,P-] = 0", commutator_nc(p_plus, p_minus)),
    ]


def suite_e3(order: int) -> VerificationReport:
    """Deformed three-dimensional Euclidean algebra via the inverse map

        P+ = (1/w) ln(1 + w Pi+),
        P- = Pi- + (w/4) Pi0^2 (1 + w Pi+)^{-1},
        P0 = Pi0 (1 + w Pi+)^{-1},

    on classical e(3), and its forward map

        Pi+ = (e^{w P+} - 1)/w,  Pi0 = P0 e^{w P+},  Pi- = P- - (w/4) P0^2 e^{w P+}:

    verifies all deformed brackets, the forward-map round trip, agreement of
    each Casimir on the classical generators and on the forward images, and
    that the Casimirs commute with all six deformed generators."""
    w = order + _SLACK
    p = e3_presentation()
    report, one, (jp, j0, jm, pi_p, pi_0, pi_m) = _series_suite("e3", order, p, w)
    p_plus, p_zero, p_minus, e_minus = _e3_deformed(pi_p, pi_0, pi_m)   # e_minus = e^{-w P+}
    ladder_rhs = (one - e_minus).div_t(1).scale(2)               # (2/w)(1 - e^{-w P+})

    checks = _e3_shared_checks(jp, j0, jm, p_plus, p_zero, p_minus) + [
        ("[J0,P+] = (2/w)(1-e^{-wP+})", commutator_nc(j0, p_plus) - ladder_rhs),
        ("[P0,J+] = (2/w)(1-e^{-wP+})", commutator_nc(p_zero, jp) - ladder_rhs),
        (
            "[J0,P-] = -2P- + (w/2)P0^2",
            commutator_nc(j0, p_minus)
            + p_minus.scale(2)
            - (p_zero * p_zero).scale(Fraction(1, 2)).mul_t(1),
        ),
        (
            "[P0,J-] = -2e^{-wP+}P- - (w/2)P0^2",
            commutator_nc(p_zero, jm)
            + (e_minus * p_minus).scale(2)
            + (p_zero * p_zero).scale(Fraction(1, 2)).mul_t(1),
        ),
        ("[J+,P-] = P0", commutator_nc(jp, p_minus) - p_zero),
        ("[P+,J-] = P0", commutator_nc(p_plus, jm) - p_zero),
        ("[J+,P+] = 0", commutator_nc(jp, p_plus)),
        (
            "[J-,P-] = w P0 P-",
            commutator_nc(jm, p_minus) - (p_zero * p_minus).mul_t(1),
        ),
        (
            "[J0,P0] = -2 P0 (1-e^{-wP+})",
            commutator_nc(j0, p_zero) + (p_zero * (one - e_minus)).scale(2),
        ),
    ]
    for label, residual in checks:
        report.check_series_zero(label, residual, order)

    e_plus = series_function_apply(p_plus.mul_t(1), "exp")[0]
    zero_image = p_zero * e_plus
    image = ((e_plus - one).div_t(1), zero_image,
             p_minus - (p_zero * zero_image).scale(Fraction(1, 4)).mul_t(1))
    labels = ("(e^{wP+}-1)/w = Pi+", "P0 e^{wP+} = Pi0", "P- - (w/4)P0^2 e^{wP+} = Pi-")
    for label, back, pi in zip(labels, image, (pi_p, pi_0, pi_m)):
        report.check_series_zero(f"round trip: {label}", back - pi, order)

    c1, c2 = _c1(pi_p, pi_0, pi_m), _c2(jp, j0, jm, pi_p, pi_0, pi_m)
    report.check_series_zero("C1: both closed forms agree", c1 - _c1(*image), order)
    report.check_series_zero("C2: both closed forms agree", c2 - _c2(jp, j0, jm, *image), order)

    deformed_gens = [
        ("J+", jp), ("J0", j0), ("J-", jm),
        ("P+", p_plus), ("P0", p_zero), ("P-", p_minus),
    ]
    for name, g in deformed_gens:
        report.check_series_zero(f"[C1,{name}] = 0", commutator_nc(c1, g), order)
        report.check_series_zero(f"[C2,{name}] = 0", commutator_nc(c2, g), order)
    return report


def suite_qe3(order: int) -> VerificationReport:
    """The q-deformed three-dimensional Euclidean algebra via its map

        e^{-(W/2) P0} = (1 + C1 W^2/2) - (W/2) sqrt(1 + C1 W^2/4) Pi0,
        P+- e^{-(W/2) P0} = sqrt(1 + C1 W^2/4) Pi+-,

    with C1 = Pi+ Pi- + Pi0^2/4 the classical invariant, expanded in PBW
    form.  Verifies the full bracket list and the closed form of C1 in the
    deformed generators."""
    w = order + _SLACK
    p = e3_presentation()
    report, one, (jp, j0, jm, pi_p, pi_0, pi_m) = _series_suite("qe3", order, p, w)

    c1 = _c1(pi_p, pi_0, pi_m)
    root = series_function_apply(c1.scale(Fraction(1, 4)).mul_t(2), "sqrt1p")[0]
    a_dev = c1.scale(Fraction(1, 2)).mul_t(2) - (root * pi_0).scale(Fraction(1, 2)).mul_t(1)
    ln, a_inv = series_function_apply(a_dev, "ln1p", "inv1p")
    p_zero = -ln.div_t(1).scale(2)
    p_plus = root * pi_p * a_inv
    p_minus = root * pi_m * a_inv

    # -(W/2) P0 = ln(1 + a_dev), so e^{-(W/2) P0} = 1 + a_dev, e^{(W/2) P0} =
    # a_inv and e^{W P0} = a_inv^2 exactly; the one exp series, over
    # -(W/2) P0, checks exp o ln
    e_half_m, e_half_p, e_p0 = one + a_dev, a_inv, a_inv * a_inv
    report.check_series_zero(
        "map consistency: e^{-(W/2)P0} reproduces its defining series",
        series_function_apply(p_zero.mul_t(1).scale(Fraction(-1, 2)), "exp")[0] - e_half_m,
        order,
    )

    ladder_rhs = (e_p0 - one).div_t(1)                      # (1/W)(e^{W P0} - 1)

    checks = _e3_shared_checks(jp, j0, jm, p_plus, p_zero, p_minus) + [
        ("[J0,P+] = 2P+", commutator_nc(j0, p_plus) - p_plus.scale(2)),
        ("[J0,P-] = -2P-", commutator_nc(j0, p_minus) + p_minus.scale(2)),
        ("[P0,J+] = 2P+", commutator_nc(p_zero, jp) - p_plus.scale(2)),
        ("[P0,J-] = -2P-", commutator_nc(p_zero, jm) + p_minus.scale(2)),
        ("[J0,P0] = 0", commutator_nc(j0, p_zero)),
        (
            "[P+,J+] = W P+^2",
            commutator_nc(p_plus, jp) - (p_plus * p_plus).mul_t(1),
        ),
        (
            "[P-,J-] = -W P-^2",
            commutator_nc(p_minus, jm) + (p_minus * p_minus).mul_t(1),
        ),
        (
            "[J+,P-] = (1/W)(e^{W P0}-1)",
            commutator_nc(jp, p_minus) - ladder_rhs,
        ),
        (
            "[J-,P+] = -(1/W)(e^{W P0}-1)",
            commutator_nc(jm, p_plus) + ladder_rhs,
        ),
    ]
    for label, residual in checks:
        report.check_series_zero(label, residual, order)

    c1_deformed = p_plus * p_minus * e_half_m + (e_half_p + e_half_m - one.scale(2)).div_t(2)
    report.check_series_zero(
        "C1 = P+ P- e^{-(W/2)P0} + (1/W^2)(e^{(W/2)P0} + e^{-(W/2)P0} - 2)",
        c1_deformed - c1,
        order,
    )
    return report


# -- singularity scan -------------------------------------------------------------
#
# The inverse map evaluated on classical momentum eigenvalues, exactly until
# each cell is printed.  The map degenerates where 1 + omega*pi_plus reaches
# zero, and the leading eigenvalue picks up an imaginary part pi/omega beyond
# it.  Only ln|u| and pi are floats, each made exact before it is divided by
# omega.

#: The fields of a scan row, in the column order of the CSV output.
_SPECTRUM_KEYS = ("input", "class", "re_p_plus", "im_p_plus", "p_minus", "p_zero")


def _rounded(value: Fraction) -> float:
    """``value`` rounded once to a float; OverflowError where it leaves the
    float range, which a nonzero value that rounds to 0.0 also does."""
    rounded = float(value)
    if value and not rounded:
        raise OverflowError("a nonzero value rounds to 0.0")
    return rounded


def momentum_spectrum(omega: Fraction, pi_plus_grid, pi_minus: Fraction,
                      pi_zero: Fraction) -> dict:
    """Classify classical momentum eigenvalues under the inverse map.

    A point is singular exactly where u = 1 + omega*pi_plus is zero, regular
    where u > 0 and complex where u < 0.  Returns the scan rows plus a
    diagnostic: either the singular hit or the nearest approach of u to zero
    on the grid.  A scan whose cells leave the float range is refused."""
    if omega == 0:
        raise InputError("the spectrum scan needs a nonzero deformation parameter")
    tail = omega * pi_zero**2 / 4   # p_minus = pi_minus + tail / u
    im_complex = Fraction(math.pi) / omega
    rows = []
    try:
        out = {"omega": _rounded(omega), "pi_minus": _rounded(pi_minus),
               "pi_zero": _rounded(pi_zero), "rows": rows}
        for value in pi_plus_grid:
            u = 1 + omega * value
            if u == 0:
                cells = ("singular", None, None, None, None)
            else:
                cells = ("regular" if u > 0 else "complex",
                         _rounded(Fraction(math.log(_rounded(abs(u)))) / omega),
                         _rounded(0 if u > 0 else im_complex),
                         _rounded(pi_minus + tail / u), _rounded(pi_zero / u))
            rows.append(dict(zip(_SPECTRUM_KEYS, (_rounded(value), *cells))))
    except OverflowError:
        raise InputError("the scan's cells leave the float range") from None
    out["singular_hit"] = any(row["class"] == "singular" for row in rows)
    if rows and not out["singular_hit"]:
        nearest = min(pi_plus_grid, key=lambda v: abs(1 + omega * v))
        out["nearest_approach"] = {"input": _rounded(nearest),
                                   "one_plus_omega_pi_plus": _rounded(1 + omega * nearest)}
    return out
