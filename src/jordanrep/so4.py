"""The deformed so(4) built on two commuting copies of the deformed sl(2).

Copy 1 carries deformation parameter +h and copy 2 carries -h.  The irreps
are even in h, so the sign shows only where the coalgebra sees it: copy 2's
group-likes e+ = e^{hX} and e- = e^{-hX} trade places.  Each copy acts on
its own factor of V_{j1} (x) V_{j2}; ``combine`` joins the copies' legs (the
names of :data:`~jordanrep.irrep.COPRODUCT`) by the product it is given:

    J+ = X1 (x) 1 + 1 (x) X2                 K+ = X1 (x) 1 - 1 (x) X2
    J- = Y1 (x) e^{hX2} + e^{-hX1} (x) Y2    K- = Y1 (x) e^{hX2} - e^{-hX1} (x) Y2
    J0 = H1 (x) e^{hX2} + e^{-hX1} (x) H2    K0 = H1 (x) e^{hX2} - e^{-hX1} (x) H2

and the full list of bracket relations and the coalgebra maps are verified
as exact polynomial-matrix identities.  ``build_so4`` builds every leg
they read once, in one table.  Each exponential is a Kronecker product of
per-copy group-likes e^{±hX_i} (legs "e+", "e-" of ``Irrep.legs``): X1 and
X2 commute, so e^{h(s1 X1 + s2 X2)} = e^{s1 hX1} (x) e^{s2 hX2}.  cosh and
sinh of hJ+ are half the sum and half the difference of e^{±hJ+}.
J+, J-, J0 and e^{±hJ+} are the sl(2) coproducts D(X), D(Y), D(H) and
D(e^{±hX}) on V_{j1} (x) V_{j2} (Ohn, Lett. Math. Phys. 25 (1992) 85), so
the sl(2) relation check :func:`~jordanrep.irrep.check_sl2` checks their
three brackets.

Verification runs on concrete representations: passing at several (j1, j2)
pairs is evidence for the abstract identities, not a proof, and the default
suite covers (1/2,1/2), (1,1/2) and (1,1).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exact.matrices import PolyMatrix, TensorSum, anticommutator, commutator
from .irrep import COPRODUCT, antipodes, check_sl2, contract, cosh_sinh, map_to_deformed
from .report import VerificationReport

GENERATOR_NAMES = ("J+", "J-", "J0", "K+", "K-", "K0")


def combine(c1: dict, c2: dict, tensor) -> dict:
    """J+-, J0, K+-, K0 (in GENERATOR_NAMES order) from the legs X, Y, H, 1, e-
    of copy 1 and copy 2, whatever they hold (matrices, coproducts or
    antipodes), each pair joined by ``tensor``.  Legs of different copies
    commute, so the anti-homomorphism S needs no reversal."""
    x1, x2 = tensor(c1["X"], c2["1"]), tensor(c1["1"], c2["X"])
    y1, y2 = tensor(c1["Y"], c2["e-"]), tensor(c1["e-"], c2["Y"])
    h1, h2 = tensor(c1["H"], c2["e-"]), tensor(c1["e-"], c2["H"])
    return {"J+": x1 + x2, "J-": y1 + y2, "J0": h1 + h2,
            "K+": x1 - x2, "K-": y1 - y2, "K0": h1 - h2}


class So4Rep(namedtuple("So4Rep", "j1 j2 legs copies")):
    """A (2j1+1)(2j2+1)-dimensional representation: ``legs`` maps the six
    composite generators (GENERATOR_NAMES), "1", "cosh" and "sinh" of hJ+
    and the group-likes e^{±hJ+}, e^{±hK+} to their matrices, each built
    once; ``copies`` holds each copy's COPRODUCT legs on its own factor (no
    cosh or sinh: copy 2 carries -h, which flips the sign of its sinh)."""


#: e^{h(s1 X1 + s2 X2)} as the factors' group-likes e^{s1 hX1}, e^{s2 hX2}.
_GROUP_LIKES = {"e^{hJ+}": ("e+", "e+"), "e^{-hJ+}": ("e-", "e-"),
                "e^{hK+}": ("e+", "e-"), "e^{-hK+}": ("e-", "e+")}


def build_so4(j1, j2) -> So4Rep:
    one, two = map_to_deformed(j1).legs, map_to_deformed(j2).legs
    c1, c2 = ({name: r[name] for name in COPRODUCT} for r in (one, two))
    c2["e+"], c2["e-"] = c2["e-"], c2["e+"]  # copy 2 carries -h
    table = combine(c1, c2, PolyMatrix.kron)
    table["1"] = PolyMatrix.identity(table["J+"].weights)
    for name, (n1, n2) in _GROUP_LIKES.items():
        table[name] = one[n1].kron(two[n2])
    table["cosh"], table["sinh"] = cosh_sinh(table["e^{hJ+}"], table["e^{-hJ+}"])
    return So4Rep(j1, j2, table, (c1, c2))


def verify_so4_relations(r: So4Rep) -> VerificationReport:
    """Every bracket of the composite algebra as an exact identity."""
    report = VerificationReport(f"so4 relations j1={r.j1} j2={r.j2}")
    g = r.legs
    jp, jm, j0, kp, km, k0 = (g[name] for name in GENERATOR_NAMES)
    e_pjp, e_mjp, e_mkp = g["e^{hJ+}"], g["e^{-hJ+}"], g["e^{-hK+}"]
    cosh_jp, sinh_jp = g["cosh"], g["sinh"]

    check_sl2(report, "", g, ("J+", "J-", "J0"))
    report.check_matrix_identity("[K0,K+] = (2/h) sinh(hJ+)",
                                 commutator(k0, kp), sinh_jp.divide_h().scale(2))
    report.check_matrix_identity("[K+,K-] = J0", commutator(kp, km), j0)
    report.check_matrix_identity(
        "[K0,K-] = -{J-, e^{-hK+}} - {K-, sinh(hJ+)}",
        commutator(k0, km),
        -anticommutator(jm, e_mkp) - anticommutator(km, sinh_jp),
    )
    cosh_minus_exp = (cosh_jp - e_mkp).divide_h().scale(2)
    report.check_matrix_identity("[J0,K+] = (2/h)(cosh(hJ+) - e^{-hK+})",
                                 commutator(j0, kp), cosh_minus_exp)
    report.check_matrix_identity("[K0,J+] = (2/h)(cosh(hJ+) - e^{-hK+})",
                                 commutator(k0, jp), cosh_minus_exp)

    # h/8-weighted quadratic tail shared by [J0,K-] and [K0,J-]
    plus_part = (j0 + k0) * e_mjp + e_mjp * (j0 + k0)
    minus_part = (j0 - k0) * e_pjp + e_pjp * (j0 - k0)
    quad = (plus_part * minus_part).scale(Fraction(1, 8)).mul_h()
    report.check_matrix_identity(
        "[J0,K-] = -{K-, cosh(hJ+)} - (h/8)(J0+K0,e^{-hJ+})(J0-K0,e^{hJ+})",
        commutator(j0, km),
        -anticommutator(km, cosh_jp) - quad,
    )
    report.check_matrix_identity(
        "[K0,J-] = -{K-, e^{-hK+}} - {J-, sinh(hJ+)} + (h/8)(J0+K0,e^{-hJ+})(J0-K0,e^{hJ+})",
        commutator(k0, jm),
        -anticommutator(km, e_mkp)
        - (sinh_jp * jm + jm * sinh_jp)
        + quad,
    )
    report.check_matrix_identity("[J+,K-] = K0", commutator(jp, km), k0)
    report.check_matrix_identity("[K+,J-] = K0", commutator(kp, jm), k0)
    report.check_matrix_identity("[J+,K+] = 0", commutator(jp, kp),
                                 PolyMatrix.zeros(jp.weights, 2 * jp.weight))
    jmkm = (
        -((jm + km) * (e_mjp * (j0 - k0) * e_pjp + (j0 - k0))).scale(Fraction(1, 4))
        - (plus_part * (jm - km) * e_pjp).scale(Fraction(1, 4))
    ).mul_h()
    report.check_matrix_identity(
        "[J-,K-] = -(h/4)(J-+K-)(e^{-hJ+}(J0-K0)e^{hJ+}+(J0-K0)) - (h/4)((J0+K0),e^{-hJ+})(J--K-)e^{hJ+}",
        commutator(jm, km),
        jmkm,
    )
    report.check_matrix_identity(
        "[J0,K0] = 2 J0 sinh(hJ+) + 2 K0 (e^{-hK+} - cosh(hJ+))",
        commutator(j0, k0),
        (j0 * sinh_jp).scale(2) + (k0 * (e_mkp - cosh_jp)).scale(2),
    )
    return report


# -- coalgebra -------------------------------------------------------------------
#
# The coproducts come by two routes.  Route (a) is the table below, written
# in the composite generators.  Route (b) evaluates the sl(2) table
# irrep.COPRODUCT on each copy's legs and joins the results by ``combine`` and
# TensorSum.kron.  Coproducts on the tensor square are handled as sums of
# Kronecker pairs of dim x dim legs, and the two routes are compared by exact
# elimination on the left legs of their difference (TensorSum.first_difference),
# so no dim^2 x dim^2 matrix and no block of one is ever assembled.

#: Route (a): the coproducts as (left, right) names of So4Rep.legs.
COPRODUCT_DIRECT = {
    "J+": [("J+", "1"), ("1", "J+")],
    "J-": [("J-", "cosh"), ("e^{-hK+}", "J-"), ("K-", "sinh")],
    "J0": [("J0", "cosh"), ("e^{-hK+}", "J0"), ("K0", "sinh")],
    "K+": [("K+", "1"), ("1", "K+")],
    "K-": [("K-", "cosh"), ("e^{-hK+}", "K-"), ("J-", "sinh")],
    "K0": [("K0", "cosh"), ("e^{-hK+}", "K0"), ("J0", "sinh")],
}


def _pair(a: PolyMatrix, b: PolyMatrix) -> TensorSum:
    return TensorSum([(a, b)])


def _coproducts_direct(r_legs: dict) -> dict[str, TensorSum]:
    """Route (a): the table COPRODUCT_DIRECT on the legs of So4Rep.legs."""
    return {name: contract(pairs, r_legs, r_legs, _pair)
            for name, pairs in COPRODUCT_DIRECT.items()}


def _coproducts_per_copy(r: So4Rep) -> dict[str, TensorSum]:
    """Route (b): the sl(2) coproduct of each copy's legs, combined."""
    return combine(*({g: contract(pairs, c, c, _pair) for g, pairs in COPRODUCT.items()}
                     for c in r.copies), TensorSum.kron)


def _antipodes_direct(g: dict) -> dict[str, PolyMatrix]:
    """The antipodes in the composite generators, on the legs of So4Rep.legs."""
    e_pkp, cosh_jp, sinh_jp = g["e^{hK+}"], g["cosh"], g["sinh"]
    return {
        "J+": -g["J+"],
        "J-": -(e_pkp * (g["J-"] * cosh_jp - g["K-"] * sinh_jp)),
        "J0": -(e_pkp * (g["J0"] * cosh_jp - g["K0"] * sinh_jp)),
        "K+": -g["K+"],
        "K-": -(e_pkp * (g["K-"] * cosh_jp - g["J-"] * sinh_jp)),
        "K0": -(e_pkp * (g["K0"] * cosh_jp - g["J0"] * sinh_jp)),
    }


def verify_so4_coalgebra(r: So4Rep) -> VerificationReport:
    """Coproducts computed two ways on the tensor square, antipodes against
    per-copy antipodes, and counit compatibility."""
    report = VerificationReport(f"so4 coalgebra j1={r.j1} j2={r.j2}")
    routes = (("coproduct", _coproducts_direct(r.legs), _coproducts_per_copy(r)),
              ("antipode", _antipodes_direct(r.legs),
               combine(*(antipodes(c) for c in r.copies), PolyMatrix.kron)))
    for kind, direct, per_copy in routes:
        for name in GENERATOR_NAMES:
            report.check_matrix_identity(f"{kind} of {name}: direct = per-copy",
                                         direct[name], per_copy[name])

    # counit: eps is the one-dimensional trivial representation, (j1, j2) =
    # (0, 0), whose legs are each leg's counit, a 1x1 matrix of the leg's
    # weight; route (a)'s table with those legs on the left must reproduce
    # the generator.  The check tests the table, not the representation.
    eps = build_so4(0, 0).legs
    for name in GENERATOR_NAMES:
        report.check_matrix_identity(
            f"counit (eps x id) on {name}",
            contract(COPRODUCT_DIRECT[name], eps, r.legs, PolyMatrix.kron), r.legs[name]
        )
    return report
