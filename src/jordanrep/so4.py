"""The deformed so(4) built on two commuting copies of the deformed sl(2).

Copy 1 carries deformation parameter +h and copy 2 carries -h (the -h copy
is produced by the substitution h -> -h on matrix entries).  On the tensor
product of two finite-dimensional irreps we form

    J+ = X1 + X2                     K+ = X1 - X2
    J- = Y1 e^{hX2} + e^{-hX1} Y2    K- = Y1 e^{hX2} - e^{-hX1} Y2
    J0 = H1 e^{hX2} + e^{-hX1} H2    K0 = H1 e^{hX2} - e^{-hX1} H2

and verify the full list of bracket relations and the coalgebra maps as
exact polynomial-matrix identities.  Each exponential is a Kronecker product
of per-copy series e^{±hX_i}, finite as X_i is strictly upper triangular: X1
and X2 commute, so e^{h(s1 X1 + s2 X2)} = e^{s1 hX1} (x) e^{s2 hX2}.  cosh
and sinh are half the sum and half the difference of e^{+h.} and e^{-h.}.

Verification runs on concrete representations: passing at several (j1, j2)
pairs is evidence for the abstract identities, not a proof, and the default
suite covers (1/2,1/2), (1,1/2) and (1,1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .exact import PolyMatrix, TensorSum, anticommutator, commutator
from .irrep import Irrep, classical_rep, cosh_sinh, ensure_half_integer, map_to_deformed
from .report import VerificationReport

GENERATOR_NAMES = ("J+", "J-", "J0", "K+", "K-", "K0")


@dataclass(frozen=True)
class So4Rep:
    """Six composite generators on a (2j1+1)(2j2+1)-dimensional space, the
    per-copy tensored triples and the two irreps (copy 2 at -h) they came from."""

    j1: Fraction
    j2: Fraction
    J_plus: PolyMatrix
    J_minus: PolyMatrix
    J_zero: PolyMatrix
    K_plus: PolyMatrix
    K_minus: PolyMatrix
    K_zero: PolyMatrix
    copies: dict
    factors: tuple[Irrep, Irrep]

    def exp(self, s1: int, s2: int) -> PolyMatrix:
        """e^{h(s1 X1 + s2 X2)} for s1, s2 in {-1, 0, 1}."""
        one, two = self.factors
        return one.e[s1].kron(two.e[s2])

    def cosh_sinh(self) -> tuple[PolyMatrix, PolyMatrix]:
        """cosh(hJ+) and sinh(hJ+)."""
        return cosh_sinh(self.exp(+1, +1), self.exp(-1, -1))

    def generators(self) -> dict[str, PolyMatrix]:
        return {
            "J+": self.J_plus,
            "J-": self.J_minus,
            "J0": self.J_zero,
            "K+": self.K_plus,
            "K-": self.K_minus,
            "K0": self.K_zero,
        }


def build_so4(j1, j2) -> So4Rep:
    j1, j2 = ensure_half_integer(j1), ensure_half_integer(j2)
    one = map_to_deformed(classical_rep(j1))
    two = map_to_deformed(classical_rep(j2))
    # copy 2 carries parameter -h
    two = replace(two, X=two.X.negate_h(), Y=two.Y.negate_h(), H=two.H.negate_h())

    i1, i2 = one.e[0], two.e[0]
    x1 = one.X.kron(i2)
    y1 = one.Y.kron(i2)
    h1 = one.H.kron(i2)
    x2 = i1.kron(two.X)
    y2 = i1.kron(two.Y)
    h2 = i1.kron(two.H)

    e_x2 = i1.kron(two.e[+1])      # e^{h X2}
    f_x1 = one.e[-1].kron(i2)      # e^{-h X1}

    return So4Rep(
        j1=j1,
        j2=j2,
        J_plus=x1 + x2,
        J_minus=y1 * e_x2 + f_x1 * y2,
        J_zero=h1 * e_x2 + f_x1 * h2,
        K_plus=x1 - x2,
        K_minus=y1 * e_x2 - f_x1 * y2,
        K_zero=h1 * e_x2 - f_x1 * h2,
        copies={
            "x1": x1, "y1": y1, "h1": h1,
            "x2": x2, "y2": y2, "h2": h2,
        },
        factors=(one, two),
    )


def verify_so4_relations(r: So4Rep) -> VerificationReport:
    """Every bracket of the composite algebra as an exact identity."""
    report = VerificationReport(f"so4 relations j1={r.j1} j2={r.j2}")
    jp, jm, j0 = r.J_plus, r.J_minus, r.J_zero
    kp, km, k0 = r.K_plus, r.K_minus, r.K_zero

    e_pjp, e_mjp, e_mkp = r.exp(+1, +1), r.exp(-1, -1), r.exp(-1, +1)  # e^{±hJ+}, e^{-hK+}
    cosh_jp, sinh_jp = cosh_sinh(e_pjp, e_mjp)
    two_sinh_over_h = sinh_jp.divide_h().scale(2)

    report.check_matrix_identity("[J0,J+] = (2/h) sinh(hJ+)",
                                 commutator(j0, jp), two_sinh_over_h)
    report.check_matrix_identity("[K0,K+] = (2/h) sinh(hJ+)",
                                 commutator(k0, kp), two_sinh_over_h)
    report.check_matrix_identity("[J0,J-] = -{J-, cosh(hJ+)}",
                                 commutator(j0, jm), -anticommutator(jm, cosh_jp))
    report.check_matrix_identity("[J+,J-] = J0", commutator(jp, jm), j0)
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
        - (((j0 + k0) * e_mjp + e_mjp * (j0 + k0)) * (jm - km) * e_pjp).scale(Fraction(1, 4))
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
# Coproducts on the tensor square are handled as sums of Kronecker pairs:
# products act on the dim x dim legs, and the two routes are compared by exact
# elimination on the left legs of their difference (TensorSum.first_difference),
# so no dim^2 x dim^2 matrix and no block of one is ever assembled.


def _coproducts_direct(r: So4Rep) -> dict[str, TensorSum]:
    """Route (a): coproducts written directly in the composite generators."""
    i = PolyMatrix.identity(r.J_plus.weights)
    cosh_jp, sinh_jp = r.cosh_sinh()
    e_mkp = r.exp(-1, +1)
    return {
        "J+": TensorSum([(r.J_plus, i), (i, r.J_plus)]),
        "J-": TensorSum([(r.J_minus, cosh_jp), (e_mkp, r.J_minus), (r.K_minus, sinh_jp)]),
        "J0": TensorSum([(r.J_zero, cosh_jp), (e_mkp, r.J_zero), (r.K_zero, sinh_jp)]),
        "K+": TensorSum([(r.K_plus, i), (i, r.K_plus)]),
        "K-": TensorSum([(r.K_minus, cosh_jp), (e_mkp, r.K_minus), (r.J_minus, sinh_jp)]),
        "K0": TensorSum([(r.K_zero, cosh_jp), (e_mkp, r.K_zero), (r.J_zero, sinh_jp)]),
    }


def _coproducts_per_copy(r: So4Rep) -> dict[str, TensorSum]:
    """Route (b): apply the per-copy coproducts to the defining combinations.

    Copy i has D(X_i) = X_i (x) 1 + 1 (x) X_i (so exponentials of X_i are
    group-like), D(Y_i) = Y_i (x) e^{h theta_i X_i} + e^{-h theta_i X_i} (x) Y_i
    with theta_1 = +1, theta_2 = -1, and likewise for H_i."""
    c = r.copies
    i = PolyMatrix.identity(r.J_plus.weights)
    e_x1p, e_x1m = r.exp(+1, 0), r.exp(-1, 0)
    e_x2p, e_x2m = r.exp(0, +1), r.exp(0, -1)

    def primitive(m):
        return TensorSum([(m, i), (i, m)])

    def twisted(m, e_plus, e_minus):
        # D(g) = g (x) e^{h theta X} + e^{-h theta X} (x) g
        return TensorSum([(m, e_plus), (e_minus, m)])

    d_x1 = primitive(c["x1"])
    d_x2 = primitive(c["x2"])
    d_y1 = twisted(c["y1"], e_x1p, e_x1m)
    d_h1 = twisted(c["h1"], e_x1p, e_x1m)
    d_y2 = twisted(c["y2"], e_x2m, e_x2p)   # theta_2 = -1 swaps the exponentials
    d_h2 = twisted(c["h2"], e_x2m, e_x2p)
    d_e_x2 = TensorSum([(e_x2p, e_x2p)])    # group-like: D(e^{hX2}) = e^{hX2} (x) e^{hX2}
    d_f_x1 = TensorSum([(e_x1m, e_x1m)])

    d_jm = d_y1 * d_e_x2 + d_f_x1 * d_y2
    d_j0 = d_h1 * d_e_x2 + d_f_x1 * d_h2
    d_km = d_y1 * d_e_x2 + (-(d_f_x1 * d_y2))
    d_k0 = d_h1 * d_e_x2 + (-(d_f_x1 * d_h2))
    return {
        "J+": d_x1 + d_x2,
        "J-": d_jm,
        "J0": d_j0,
        "K+": d_x1 + (-d_x2),
        "K-": d_km,
        "K0": d_k0,
    }


def _antipodes_direct(r: So4Rep) -> dict[str, PolyMatrix]:
    cosh_jp, sinh_jp = r.cosh_sinh()
    e_pkp = r.exp(+1, -1)
    return {
        "J+": -r.J_plus,
        "J-": -(e_pkp * (r.J_minus * cosh_jp - r.K_minus * sinh_jp)),
        "J0": -(e_pkp * (r.J_zero * cosh_jp - r.K_zero * sinh_jp)),
        "K+": -r.K_plus,
        "K-": -(e_pkp * (r.K_minus * cosh_jp - r.J_minus * sinh_jp)),
        "K0": -(e_pkp * (r.K_zero * cosh_jp - r.J_zero * sinh_jp)),
    }


def _antipodes_per_copy(r: So4Rep) -> dict[str, PolyMatrix]:
    """The antipode is an anti-homomorphism, so on the combinations:
    S(Y1 e^{hX2}) = S(e^{hX2}) S(Y1), with per-copy values
    S(Y_i) = -e^{h theta_i X_i} Y_i e^{-h theta_i X_i} and S(X_i) = -X_i."""
    c = r.copies
    e_x1p, e_x1m = r.exp(+1, 0), r.exp(-1, 0)
    e_x2p, e_x2m = r.exp(0, +1), r.exp(0, -1)
    s_y1 = -(e_x1p * c["y1"] * e_x1m)
    s_h1 = -(e_x1p * c["h1"] * e_x1m)
    s_y2 = -(e_x2m * c["y2"] * e_x2p)
    s_h2 = -(e_x2m * c["h2"] * e_x2p)
    s_e_x2 = e_x2m          # S(e^{hX2}) = e^{-hX2}
    s_f_x1 = e_x1p          # S(e^{-hX1}) = e^{hX1}
    return {
        "J+": -c["x1"] - c["x2"],
        "J-": s_e_x2 * s_y1 + s_y2 * s_f_x1,
        "J0": s_e_x2 * s_h1 + s_h2 * s_f_x1,
        "K+": -c["x1"] + c["x2"],
        "K-": s_e_x2 * s_y1 - s_y2 * s_f_x1,
        "K0": s_e_x2 * s_h1 - s_h2 * s_f_x1,
    }


def verify_so4_coalgebra(r: So4Rep) -> VerificationReport:
    """Coproducts computed two ways on the tensor square, antipodes against
    per-copy antipodes, and counit compatibility."""
    report = VerificationReport(f"so4 coalgebra j1={r.j1} j2={r.j2}")

    direct = _coproducts_direct(r)
    per_copy = _coproducts_per_copy(r)
    for name in GENERATOR_NAMES:
        report.check_matrix_identity(
            f"coproduct of {name}: direct = per-copy",
            direct[name],
            per_copy[name],
        )

    s_direct = _antipodes_direct(r)
    s_per_copy = _antipodes_per_copy(r)
    for name in GENERATOR_NAMES:
        report.check_matrix_identity(
            f"antipode of {name}: direct = per-copy",
            s_direct[name],
            s_per_copy[name],
        )

    # counit: eps is the one-dimensional trivial representation, (j1, j2) =
    # (0, 0), so building the direct coproducts there turns each left leg into
    # its counit, a 1x1 matrix of the leg's weight, and sum_i eps(left_i) (x)
    # right_i must reproduce the generator.  The check tests the direct
    # coproduct formulas, not the representation.
    trivial = _coproducts_direct(build_so4(0, 0))
    gens = r.generators()
    for name in GENERATOR_NAMES:
        collapsed = [eps.kron(right) for (eps, _), (_, right)
                     in zip(trivial[name].pairs, direct[name].pairs)]
        collapsed = sum(collapsed[1:], collapsed[0])
        report.check_matrix_identity(
            f"counit (eps x id) on {name}", collapsed, gens[name]
        )
    return report
