"""Finite-dimensional irreducible representations of the deformed algebra.

For weight lam = 2j the Verma module acquires a singular vector

    w_s = w_{2j+1} + sum_{p=1}^{[j]} C_p w_{2j-2p+1},

whose coefficients solve a triangular linear system in the X elements at
lam = 2j, read from an element table built over the rationals at that lam.
Factoring out the submodule it generates leaves a (2j+1)-dimensional
irreducible on w_0..w_{2j}: X and H restrict from the element table, and Y
is the unit subdiagonal plus corrections -C_p in the last column.

The same irreps arise from the invertible nonlinear map on a classical
spin-j triple (J+, J-, J0),

    X = (2/h) arctanh(h J+ / 2),
    Y = sqrt(1 - h^2 J+^2/4) J- sqrt(1 - h^2 J+^2/4),
    H = J0.

J+ has one nonzero superdiagonal s, so J+^k is one band with entry
(r, r+k) = s_r ... s_{r+k-1}, and each series is a finite sum of bands
with closed-form Taylor coefficients: X, the square root and, since
hX = 2 arctanh(hJ+/2), the Cayley forms e^{±hX} = (1 ± hJ+/2)/(1 ∓ hJ+/2).
The Verma-basis irrep and one read from JSON have no J+ to work from, and
sum e^{±hX} over the matrix powers of hX (:func:`exponentials`).  Both
constructions are verified against the defining relations

    [H, X] = (2/h) sinh(h X),   [H, Y] = -{Y, cosh(h X)},   [X, Y] = H,

the Casimir, and the Hopf structure maps, all as exact matrix identities.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul

from .errors import DimensionMismatch
from .exact import (
    BiPoly,
    PolyMatrix,
    anticommutator,
    commutator,
    power_sum,
    taylor,
)
from .report import VerificationReport
from .verma import ElementTable, build_table

#: The weights of X, Y and H when h has weight -2.
GENERATOR_WEIGHTS = {"X": 2, "Y": -2, "H": 0}


def ensure_half_integer(j) -> Fraction:
    """A spin read from JSON ("7/2" or 3, but not true) as a nonnegative
    half-integer Fraction."""
    if isinstance(j, bool) or (j := Fraction(j)) < 0 or (2 * j).denominator != 1:
        raise ValueError(f"j must be a nonnegative half-integer, got {j}")
    return j


def spin_weights(j: Fraction) -> tuple[int, ...]:
    """The basis weights 2j, 2j - 2, ..., -2j of both irrep bases."""
    two_j = int(2 * j)
    return tuple(range(two_j, -two_j - 1, -2))


class Irrep(namedtuple("Irrep", "j basis X Y H e")):
    """A (2j+1)-dimensional triple of polynomial matrices.

    basis "verma" indexes w_0..w_{2j} by the power of the lowering
    generator; basis "diagonal" orders weights descending so H comes out
    diagonal (2j, 2j-2, ..., -2j).  Both bases have the basis weights
    2j - 2i, so X, Y and H are graded matrices of weights 2, -2 and 0.
    ``e`` is {+1: e^{hX}, -1: e^{-hX}, 0: 1}, the source of every
    exponential, cosh and sinh."""

    @property
    def dim(self) -> int:
        return int(2 * self.j) + 1

    def to_obj(self) -> dict:
        return {
            "kind": "irrep",
            "j": str(self.j),
            "dim": self.dim,
            "basis": self.basis,
            "basis_order": (
                "w_0..w_2j by lowering power"
                if self.basis == "verma"
                else "weights descending 2j..-2j"
            ),
            "matrices": {
                "X": self.X.to_obj(),
                "Y": self.Y.to_obj(),
                "H": self.H.to_obj(),
            },
        }

    @staticmethod
    def from_obj(obj) -> "Irrep":
        """X, Y and H from grids of polynomials, each entry checked against
        its grade; the grid size is checked against j before any basis
        weight is made."""
        if obj["basis"] not in ("verma", "diagonal"):
            raise ValueError(f"basis must be verma or diagonal, got {obj['basis']!r}")
        j = ensure_half_integer(obj["j"])
        grids = {
            name: [[BiPoly.from_obj(a) for a in row] for row in obj["matrices"][name]]
            for name in GENERATOR_WEIGHTS
        }
        for name, grid in grids.items():
            if len(grid) != 2 * j + 1:
                raise DimensionMismatch(f"{name} has {len(grid)} rows, "
                                        f"but j = {j} needs {2 * j + 1}")
        mats = {name: PolyMatrix.from_polys(grids.pop(name), spin_weights(j), weight)
                for name, weight in GENERATOR_WEIGHTS.items()}  # no grid outlives its matrix
        return Irrep(j=j, basis=obj["basis"], e=exponentials(mats["X"]), **mats)


def exponentials(x: PolyMatrix) -> dict[int, PolyMatrix]:
    """{+1: e^{hx}, -1: e^{-hx}, 0: 1} for a matrix x of weight 2.

    One power sum over (hx)^k for cosh(hx) and sinh(hx), which ends because
    x is strictly upper triangular by its grade; e^{±hx} = cosh ± sinh."""
    hx = x.mul_h()
    one = PolyMatrix.identity(hx.weights)
    even, odd = power_sum([taylor("cosh", hx.rows + 1), taylor("sinh", hx.rows + 1)], hx, one)
    return {+1: even + odd, -1: even - odd, 0: one}


# -- singular vectors ---------------------------------------------------------


def singular_vector(j, table: ElementTable | None = None) -> tuple[Fraction, ...]:
    """The rationals c_1..c_[j] of the singular vector at weight lam = 2j,
    whose coefficient C_p = c_p h^{2p} multiplies w_{2j-2p+1} (for j < 1
    there are none: the vector is w_{2j+1} itself).  They solve the
    triangular zero-mode system by forward substitution, on the
    h-coefficients of a table over the rationals at that lam."""
    lam = int(2 * j)
    num = int(j)  # [j] coefficients
    if table is None:
        table = build_table(lam + 1, Fraction(lam))
    coeffs: list[Fraction] = []
    for r in range(1, num + 1):
        acc = table.X(lam + 1, lam - 2 * r)
        for p in range(1, r):
            acc = acc + coeffs[p - 1] * table.X(lam + 1 - 2 * p, lam - 2 * r)
        # the lead X_{m+1}^m = (m+1)(lam-m) at m = lam - 2r is 2r(lam-2r+1) > 0
        coeffs.append(-acc / table.X(lam + 1 - 2 * r, lam - 2 * r))
    return tuple(coeffs)


# -- the two constructions ------------------------------------------------------


def verma_basis_irrep(j) -> Irrep:
    """X, H restricted from the table over the rationals at lam = 2j;
    Y = unit subdiagonal plus the singular-vector corrections in the last
    column.  Each grid holds h-coefficients, whose powers of h the grading
    fixes."""
    lam = int(2 * j)
    dim = lam + 1
    table = build_table(lam + 1, Fraction(lam))

    xm = [[table.X(n, m) for n in range(dim)] for m in range(dim)]
    hm = [[table.H(n, m) for n in range(dim)] for m in range(dim)]
    ym = [[0] * dim for _ in range(dim)]
    for n in range(dim - 1):
        ym[n + 1][n] = 1
    for p, c in enumerate(singular_vector(j, table), start=1):
        ym[lam - 2 * p + 1][lam] = -c
    weights = spin_weights(j)
    x = PolyMatrix(xm, weights, 2)
    return Irrep(j=j, basis="verma", X=x, Y=PolyMatrix(ym, weights, -2),
                 H=PolyMatrix(hm, weights, 0), e=exponentials(x))


def _band(s, coeffs, weights, weight: int) -> PolyMatrix:
    """sum_k coeffs[k] x^k, where x has the integer superdiagonal s and no
    other nonzero entry: entry (r, r+k) is coeffs[k] s_r ... s_{r+k-1},
    summed as ints over the common denominator of the coefficients."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    nums = [int(c * den) for c in coeffs]
    grid = [[0] * r + list(map(mul, nums, accumulate(s[r:], mul, initial=1)))  # s_r ... s_{r+k-1}
            for r in range(len(weights))]
    return PolyMatrix(grid, weights, weight).scale(Fraction(1, den))


def map_to_deformed(j) -> Irrep:
    """The invertible nonlinear map applied to the classical spin-j triple:
    J+ has the superdiagonal s_r = r(2j+1-r) (r = 1..2j), J- the unit
    subdiagonal and J0 the weights on its diagonal.  Every series is a band
    of s: X = sum_k 2 arctanh_k / 2^k h^{k-1} J+^k,
    sqrt(1 - h^2 J+^2 / 4) = sum_m sqrt1p_m (-1/4)^m h^{2m} J+^{2m}, and
    e^{±hX} = 1 + 2 sum_{k>=1} (±1/2)^k h^k J+^k."""
    weights = spin_weights(j)
    n = len(weights)
    s = [r * (n - r) for r in range(1, n)]
    x = _band(s, [2 * a / 2**k for k, a in enumerate(taylor("arctanh", n))], weights, 2)
    sqrt1p = taylor("sqrt1p", (n + 1) // 2)
    root = _band(s, [0 if k % 2 else sqrt1p[k // 2] * Fraction(-1, 4) ** (k // 2)
                     for k in range(n)], weights, 0)
    minus = PolyMatrix([[int(r == c + 1) for c in range(n)] for r in range(n)], weights, -2)
    zero = PolyMatrix([[w * (r == c) for c in range(n)] for r, w in enumerate(weights)],
                      weights, 0)
    e = {sign: _band(s, [1] + [2 * Fraction(sign, 2) ** k for k in range(1, n)], weights, 0)
         for sign in (+1, -1)}
    e[0] = PolyMatrix.identity(weights)
    return Irrep(j=j, basis="diagonal", X=x, Y=root * minus * root, H=zero, e=e)


# -- exact verification -----------------------------------------------------------


def cosh_sinh(e_plus: PolyMatrix, e_minus: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix]:
    """cosh(hx) and sinh(hx) from the pair e^{hx}, e^{-hx}."""
    return (e_plus + e_minus).scale(Fraction(1, 2)), (e_plus - e_minus).scale(Fraction(1, 2))


def check_sl2(report: VerificationReport, prefix: str, x, y, h, e_plus, e_minus, names):
    """The three defining relations of the triple (x, y, h), with e^{±hx}
    given, each label starting with ``prefix`` and naming x, y and h by
    ``names``."""
    cosh_hx, sinh_hx = cosh_sinh(e_plus, e_minus)
    nx, ny, nh = names
    report.check_matrix_identity(f"{prefix}[{nh},{nx}] = (2/h) sinh(h{nx})",
                                 commutator(h, x), sinh_hx.divide_h().scale(2))
    report.check_matrix_identity(f"{prefix}[{nh},{ny}] = -{{{ny}, cosh(h{nx})}}",
                                 commutator(h, y), -anticommutator(y, cosh_hx))
    report.check_matrix_identity(f"{prefix}[{nx},{ny}] = {nh}", commutator(x, y), h)


def verify_sl2_relations(r: Irrep) -> VerificationReport:
    """The three defining relations as exact matrix identities."""
    report = VerificationReport(f"sl2 relations j={r.j} basis={r.basis}")
    check_sl2(report, "", r.X, r.Y, r.H, r.e[+1], r.e[-1], ("X", "Y", "H"))
    return report


def casimir(r: Irrep) -> tuple[bool, Fraction]:
    """The central element as a matrix of weight 0, whose diagonal entries
    carry no h; returns (is_scalar, scalar value)."""
    _, sinh_hx = cosh_sinh(r.e[+1], r.e[-1])
    c = anticommutator(r.Y, sinh_hx).divide_h().scale(Fraction(1, 2))
    c = c + (r.H * r.H).scale(Fraction(1, 4))
    c = c + (sinh_hx * sinh_hx).scale(Fraction(1, 4))
    value = Fraction(c.nums[0][0], c.den)
    is_scalar = (c - PolyMatrix.identity(c.weights).scale(value)).is_zero
    return is_scalar, value


# -- Hopf structure on tensor products ----------------------------------------------
#
# The coproduct is stated once, as (left, right) leg names, with e+- = e^{+-hX}
# (Irrep.e); every Hopf check here and in so4 reads it.  ``contract`` sums
# op(left leg, right leg) over the pairs: with op = kron that is D on
# V_{j1} (x) V_{j2}, or the counit when one side is the trivial representation
# (all generators 0), and with the matrix product and the antipodes on the
# left it is m(S(x)id)D(g), which must be eps(g) 1.

COPRODUCT = {
    "X": [("X", "1"), ("1", "X")],     # D(X) = X(x)1 + 1(x)X
    "Y": [("Y", "e+"), ("e-", "Y")],   # D(Y) = Y(x)e+ + e-(x)Y
    "H": [("H", "e+"), ("e-", "H")],
    "e+": [("e+", "e+")],              # group-like
    "e-": [("e-", "e-")],
}


def legs(r: Irrep) -> dict[str, PolyMatrix]:
    """The leg names of COPRODUCT on r's matrices."""
    return {"X": r.X, "Y": r.Y, "H": r.H, "1": r.e[0], "e+": r.e[+1], "e-": r.e[-1]}


def antipodes(legs: dict) -> dict:
    """S on every leg name: S(X) = -X, S(g) = -e+ g e- for g = Y, H, S(1) = 1, S(e+-) = e-+."""
    ep, em = legs["e+"], legs["e-"]
    return {"X": -legs["X"], "Y": -(ep * legs["Y"] * em), "H": -(ep * legs["H"] * em),
            "1": legs["1"], "e+": em, "e-": ep}


def contract(pairs, left: dict, right: dict, op):
    """The sum of op(left[l], right[r]) over the (l, r) leg-name pairs."""
    terms = [op(left[l], right[r]) for l, r in pairs]
    return sum(terms[1:], terms[0])


def verify_hopf(j1, j2) -> VerificationReport:
    """Coproduct, counit and antipode identities on V_{j1} (x) V_{j2}."""
    report = VerificationReport(f"hopf j1={j1} j2={j2}")
    a, b = map_to_deformed(j1), map_to_deformed(j2)
    la, lb = legs(a), legs(b)
    kron = PolyMatrix.kron

    # D is an algebra map: D(X), D(Y), D(H) satisfy the relations, with
    # e^{hD(X)} = D(e+) since D(X) is primitive
    d = {g: contract(pairs, la, lb, kron) for g, pairs in COPRODUCT.items()}
    check_sl2(report, "coproduct ", d["X"], d["Y"], d["H"], d["e+"], d["e-"], ("X", "Y", "H"))

    # counit axiom: collapsing either tensor leg to the trivial representation
    # must reproduce the generator on the other leg.
    eps = legs(map_to_deformed(0))
    for side, rep, left, right in (("left", a, eps, la), ("right", b, lb, eps)):
        for g in GENERATOR_WEIGHTS:
            report.check_matrix_identity(f"counit (eps x id) on {g} [{side} j={rep.j}]",
                                         contract(COPRODUCT[g], left, right, kron), getattr(rep, g))

    # antipode identity on each factor: m(S x id)D(g) = eps(g) 1 = 0 for g = X, Y, H
    for rep, r_legs in ((a, la), (b, lb)):
        s = antipodes(r_legs)
        for g in GENERATOR_WEIGHTS:
            lhs = contract(COPRODUCT[g], s, r_legs, PolyMatrix.__mul__)
            report.check_matrix_identity(f"antipode m(S x id)D({g}) = 0 [j={rep.j}]",
                                         lhs, PolyMatrix.zeros(lhs.weights, lhs.weight))
    return report
