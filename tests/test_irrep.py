import json
from fractions import Fraction

import pytest

from jordanrep import irrep
from jordanrep.cli import main
from jordanrep.errors import DimensionMismatch
from jordanrep.exact import ONE, ZERO, BiPoly, PolyMatrix, commutator
from jordanrep.report import VerificationReport
from jordanrep.irrep import (
    Irrep,
    casimir,
    cosh_sinh,
    exponentials,
    map_to_deformed,
    singular_vector,
    verify_hopf,
    verify_sl2_relations,
    verma_basis_irrep,
)
from jordanrep.so4 import build_so4, verify_so4_relations
from jordanrep.verma import build_table

import golden
from oracles import (
    act, charpoly, classical_rep, constant_value, diagonal, failures, graded, is_homogeneous_h,
    negate_h, nilpotent_apply, subs_h, term, trace, with_h,
)

HALF = Fraction(1, 2)


def levels(lam, coeffs) -> dict:
    """The singular vector at weight lam as a map level -> coefficient:
    1 at the top level lam + 1, c_p h^{2p} at lam + 1 - 2p."""
    return {lam + 1 - 2 * p: term(c, 0, 2 * p) for p, c in enumerate((1, *coeffs))}


def test_singular_vector_table():
    for lam, expected in golden.SINGULAR_VECTORS.items():
        coeffs = singular_vector(Fraction(lam, 2))
        assert coeffs == tuple(expected), lam
        assert all(type(c) is Fraction for c in coeffs)
        vec = levels(lam, coeffs)
        for p, value in enumerate(expected, start=1):
            coeff = vec[lam + 1 - 2 * p]
            assert coeff == term(value, 0, 2 * p), (lam, p)
            assert is_homogeneous_h(coeff, 2 * p)


def test_singular_vector_levels_layout(capsys):
    assert main(["singvec", "--lambda", "4"]) == 0
    printed = json.loads(capsys.readouterr().out)["levels"]
    assert list(printed) == ["1", "3", "5"]
    vec = {int(level): BiPoly.from_obj(c) for level, c in printed.items()}
    assert vec == {5: ONE, 3: term(21, 0, 2), 1: term(36, 0, 4)}


def test_singular_vector_annihilated_and_eigen():
    # X kills the singular vector exactly; H has eigenvalue lam - 2(2j+1)
    for lam in range(13):
        table = build_table(lam + 2, Fraction(lam))
        vec = levels(lam, singular_vector(Fraction(lam, 2), table))
        assert act(table, "X", vec) == {}, lam
        h_vec = act(table, "H", vec)
        eigen = lam - 2 * (lam + 1)
        assert h_vec == {m: eigen * c for m, c in vec.items()}, lam


def test_trivial_irrep_j_zero():
    r = verma_basis_irrep(0)
    assert r.dim == 1
    assert r.X.is_zero and r.Y.is_zero and r.H.is_zero
    assert verify_sl2_relations(r).passed
    sc, value = casimir(r)
    assert sc and value == 0


def test_verma_irrep_j_half():
    r = verma_basis_irrep(HALF)
    assert r.X == graded([[0, 1], [0, 0]], 2)
    assert r.Y == graded([[0, 0], [1, 0]], -2)
    assert r.H == diagonal([1, -1])


def test_verma_irrep_seven_halves_golden():
    r = verma_basis_irrep(Fraction(7, 2))
    assert r.X == golden.VERMA_X
    assert r.Y == golden.VERMA_Y
    assert r.H == golden.VERMA_H


def test_verma_irrep_j_two_y_corrections():
    r = verma_basis_irrep(2)
    assert r.Y[3, 4] == term(-21, 0, 2)
    assert r.Y[1, 4] == term(-36, 0, 4)
    assert r.Y[2, 1] == ONE


def test_classical_rep_small():
    r = classical_rep(HALF)
    assert r.plus == graded([[0, 1], [0, 0]], 2)
    assert r.minus == graded([[0, 0], [1, 0]], -2)
    assert r.zero == diagonal([1, -1])
    r1 = classical_rep(1)
    assert [r1.plus[i, i + 1] for i in range(2)] == [term(2, 0, 0)] * 2
    assert [r1.minus[i + 1, i] for i in range(2)] == [ONE] * 2
    r7 = classical_rep(Fraction(7, 2))
    superdiag = [constant_value(r7.plus[i, i + 1]) for i in range(7)]
    assert superdiag == [7, 12, 15, 16, 15, 12, 7]


def test_classical_rep_brackets():
    for j in (HALF, 1, Fraction(3, 2), 2):
        r = classical_rep(j)
        assert (r.zero * r.plus - r.plus * r.zero) == r.plus.scale(2)
        assert (r.zero * r.minus - r.minus * r.zero) == r.minus.scale(-2)
        assert (r.plus * r.minus - r.minus * r.plus) == r.zero


def test_map_to_deformed_half_is_classical():
    c = classical_rep(HALF)
    r = map_to_deformed(HALF)
    assert (r.X, r.Y, r.H) == (c.plus, c.minus, c.zero)


def test_map_to_deformed_seven_halves_golden():
    r = map_to_deformed(Fraction(7, 2))
    assert r.X == golden.DIAGONAL_X
    assert r.Y == golden.DIAGONAL_Y
    assert r.H == golden.DIAGONAL_H


def test_map_to_deformed_j_one_two_term_series():
    c = classical_rep(1)
    r = map_to_deformed(1)
    # J+^3 = 0, so the deformed X is J+ itself
    assert r.X == c.plus
    assert r.X[0, 2] == ZERO
    # Y = J- - (h^2/8){J+^2, J-}; the (0,1) entry computed by hand
    sandwich = c.plus * c.plus * c.minus + c.minus * c.plus * c.plus
    expected = with_h(sandwich[0, 1] * Fraction(-1, 8), 2)
    assert r.Y[0, 1] == expected
    assert expected == term(Fraction(-1, 2), 0, 2)


@pytest.mark.parametrize("j", [0, HALF, 1, Fraction(7, 2), 10, 40])
def test_band_sums_match_the_taylor_route(monkeypatch, j):
    """X and the square root, summed as bands of J+, against their Taylor
    series over matrix powers; J+, J- and J0 are the classical triple."""
    bands = []

    def spy(s, coeffs, weights, weight):
        bands.append(honest(s, coeffs, weights, weight))
        return bands[-1]

    honest = irrep._band
    monkeypatch.setattr(irrep, "_band", spy)
    c = classical_rep(j)
    r = map_to_deformed(j)
    x, root = bands[:2]
    assert r.X == x == nilpotent_apply("arctanh", c.plus.scale(HALF)).divide_h().scale(2)
    assert root == nilpotent_apply("sqrt1p", (c.plus * c.plus).scale(Fraction(-1, 4)))
    assert r.Y == root * c.minus * root
    assert r.H == c.zero


@pytest.mark.parametrize("j", [0, HALF, 1, Fraction(5, 2), 7, 40])
def test_cayley_bands_are_the_exponentials(j):
    """e^{±hX} of the map route, one band of J+ each, against the matrix
    power sum of the other irreps and the Taylor route."""
    r = map_to_deformed(j)
    assert r.e == exponentials(r.X)
    assert r.e[+1] == nilpotent_apply("exp", r.X)
    assert r.e[-1] == nilpotent_apply("exp", -r.X)


@pytest.mark.parametrize("sign", [+1, -1])
def test_a_wrong_cayley_coefficient_fails_the_relations(monkeypatch, capsys, sign):
    """The coefficient of J+^2 in the band of e^{sign hX} off by 1 fails
    `verify sl2` on the diagonal irreps of spin 1 and up, and `verify so4`."""
    honest = irrep._band

    def wrong(s, coeffs, weights, weight):
        if weight == 0 and len(coeffs) > 2 and coeffs[1] == sign:   # 1 + 2 sum (sign/2)^k J+^k
            coeffs = [*coeffs[:2], coeffs[2] + 1, *coeffs[3:]]
        return honest(s, coeffs, weights, weight)

    monkeypatch.setattr(irrep, "_band", wrong)
    assert main(["verify", "sl2", "--j-max", "2"]) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["suite"] for r in reports if r["status"] == "fail"] == [
        f"sl2 relations j={j} basis=diagonal" for j in ("1", "3/2", "2")]
    assert main(["verify", "so4", "--j1", "3/2", "--j2", "1"]) == 1


@pytest.mark.parametrize("kind, index", [("arctanh", 3), ("sqrt1p", 1)])
def test_a_wrong_series_coefficient_fails_the_relations(monkeypatch, kind, index):
    """One Taylor coefficient of the map off by 1 breaks the sl(2) relations
    of the map-route irrep and the so(4) relations built on it."""
    honest = irrep.taylor

    def wrong(name, count):
        coeffs = honest(name, count)
        if name == kind and index < count:
            coeffs[index] += 1
        return coeffs

    monkeypatch.setattr(irrep, "taylor", wrong)
    assert not verify_sl2_relations(map_to_deformed(2)).passed
    assert not verify_so4_relations(build_so4(Fraction(3, 2), 1)).passed


@pytest.mark.parametrize("j", [HALF, 1, Fraction(3, 2), Fraction(7, 2), 3])
def test_relations_both_bases(j):
    assert verify_sl2_relations(verma_basis_irrep(j)).passed
    assert verify_sl2_relations(map_to_deformed(j)).passed


def test_relations_negative_control():
    r = verma_basis_irrep(Fraction(3, 2))
    rows = subs_h(r.X, 1)
    rows[0][1] = -rows[0][1]
    x = PolyMatrix(rows, r.X.weights, 2)
    corrupted = Irrep(j=r.j, basis=r.basis, X=x, Y=r.Y, H=r.H, e=exponentials(x))
    report = verify_sl2_relations(corrupted)
    assert not report.passed
    failing = failures(report)
    assert failing
    assert "mismatch at" in failing[0].detail


def test_missing_power_of_h_is_caught_by_the_weight():
    """[H,X] = 2 sinh(hX) lacks the 1/h of the true relation, yet both sides
    have the same values at h = 1; only their weights, 2 and 0, differ."""
    for r in (verma_basis_irrep(Fraction(5, 2)), map_to_deformed(Fraction(5, 2))):
        lhs, wrong = commutator(r.H, r.X), nilpotent_apply("sinh", r.X).scale(2)
        assert subs_h(lhs, 1) == subs_h(wrong, 1)
        with pytest.raises(DimensionMismatch):
            VerificationReport("control").check_matrix_identity("[H,X] = 2 sinh(hX)", lhs, wrong)


@pytest.mark.parametrize("two_j", range(13))
def test_one_pass_exponentials_match_the_two_series(two_j):
    """Irrep.e, summed in one pass over the even and odd powers of hX on the
    Verma route and as Cayley bands of J+ on the map route; the two
    exponential series, cosh and sinh of nilpotent_apply are the oracle."""
    j = Fraction(two_j, 2)
    for r in (verma_basis_irrep(j), map_to_deformed(j)):
        e_plus, e_minus = r.e[+1], r.e[-1]
        assert e_plus == nilpotent_apply("exp", r.X)
        assert e_minus == nilpotent_apply("exp", -r.X)
        assert e_plus * e_minus == r.e[0] == PolyMatrix.identity(r.X.weights)
        assert cosh_sinh(e_plus, e_minus) == (nilpotent_apply("cosh", r.X),
                                              nilpotent_apply("sinh", r.X))


def test_traces_vanish():
    for j in (HALF, 1, Fraction(5, 2)):
        for r in (verma_basis_irrep(j), map_to_deformed(j)):
            assert trace(r.X) == ZERO
            assert trace(r.Y) == ZERO
            assert trace(r.H) == ZERO


def test_casimir_values():
    sc, value = casimir(verma_basis_irrep(HALF))
    assert sc and value == Fraction(3, 4)
    # both bases agree for j = 7/2, and the scalar is exactly j(j+1)
    sc_v, v_verma = casimir(verma_basis_irrep(Fraction(7, 2)))
    sc_d, v_diag = casimir(map_to_deformed(Fraction(7, 2)))
    assert sc_v and sc_d and v_verma == v_diag == Fraction(63, 4)


@pytest.mark.parametrize("j", [HALF, 1, 2, Fraction(5, 2)])
def test_casimir_classical_limit(j):
    for r in (verma_basis_irrep(j), map_to_deformed(j)):
        sc, value = casimir(r)
        assert sc
        assert value == j * (j + 1)


def _weight_ladder_charpoly(j, dim):
    # expand prod_n (x - (2j - 2n)) over exact scalars, lowest power first
    coeffs = [Fraction(1)]
    for n in range(dim):
        mu = Fraction(2 * j - 2 * n)
        coeffs = [Fraction(0)] + coeffs
        coeffs = [
            coeffs[k] - (mu * coeffs[k + 1] if k + 1 < len(coeffs) else 0)
            for k in range(len(coeffs))
        ]
    return [term(c, 0, 0) for c in reversed(coeffs)]


def test_h_spectrum_via_characteristic_polynomial():
    j = HALF
    while j <= 6:
        r = verma_basis_irrep(j)
        assert charpoly(r.H) == _weight_ladder_charpoly(j, r.dim), j
        d = map_to_deformed(j)
        assert d.H == diagonal(
            [Fraction(2 * j - 2 * n) for n in range(d.dim)]
        ), j
        j += Fraction(1, 2)


def cyclic_form(r: Irrep, g: PolyMatrix) -> PolyMatrix:
    """K^-1 g K for K = [e_0, Y e_0, ..., Y^{2j} e_0]: g in the basis that Y
    generates from the top weight vector.  K is graded at weight 0, so by
    its grade it is upper triangular with h-free diagonal entries, products
    of subdiagonal entries of Y; K C = g K is solved at h = 1 by back
    substitution and then checked as an identity of graded matrices."""
    n, weights = r.dim, r.Y.weights
    powers = [PolyMatrix.identity(weights)]
    for _ in range(n - 1):
        powers.append(r.Y * powers[-1])
    k = PolyMatrix([[Fraction(y.nums[i][0], y.den) for y in powers] for i in range(n)],
                   weights, 0)
    gk = g * k
    c = [[Fraction(0)] * n for _ in range(n)]
    for col in range(n):
        for i in reversed(range(n)):
            rest = sum(Fraction(k.nums[i][m], k.den) * c[m][col] for m in range(i + 1, n))
            c[i][col] = (Fraction(gk.nums[i][col], gk.den) - rest) / Fraction(k.nums[i][i], k.den)
    c = PolyMatrix(c, weights, g.weight)
    assert k * c == gk
    return c


def test_basis_equivalence():
    """The Verma-basis and map-route irreps are one representation: each of
    X, Y and H has the same matrix in the cyclic basis of Y on both."""
    for jj in (HALF, 1, Fraction(5, 2), 4):
        a = verma_basis_irrep(jj)
        b = map_to_deformed(jj)
        assert casimir(a)[1] == casimir(b)[1]
        for name in ("X", "Y", "H"):
            ga, gb = getattr(a, name), getattr(b, name)
            assert cyclic_form(a, ga) == cyclic_form(b, gb), (jj, name)


def test_classical_limit_of_verma_matrices():
    r = verma_basis_irrep(Fraction(5, 2))
    lam = 5
    x0 = subs_h(r.X, 0)
    h0 = subs_h(r.H, 0)
    y0 = subs_h(r.Y, 0)
    for n in range(r.dim):
        assert h0[n][n] == lam - 2 * n
        if n + 1 < r.dim:
            assert x0[n][n + 1] == (n + 1) * (lam - n)
            assert y0[n + 1][n] == 1
    # at h = 0 only the entries of degree 0 survive: the classical triple
    c = classical_rep(Fraction(5, 2))
    assert (graded(x0, 2), graded(y0, -2), graded(h0, 0)) == (c.plus, c.minus, c.zero)


@pytest.mark.parametrize("j1,j2", [(HALF, HALF), (1, HALF)])
def test_hopf_checks(j1, j2):
    report = verify_hopf(j1, j2)
    assert report.passed
    labels = [e.relation_label for e in report.entries]
    assert any("counit" in label and "X" in label for label in labels)
    assert any("antipode" in label for label in labels)


@pytest.mark.parametrize(
    "wrong, generator",
    [
        (lambda legs: legs["X"], "X"),       # S(X) = X: sign lost
        (lambda legs: -legs["Y"], "Y"),      # S(Y) = -Y: conjugation by e^{hX} lost
    ],
)
def test_hopf_antipode_negative_controls(monkeypatch, wrong, generator):
    honest = irrep.antipodes

    def mutated(legs):
        s = honest(legs)
        s[generator] = wrong(legs)
        return s

    monkeypatch.setattr(irrep, "antipodes", mutated)
    report = verify_hopf(HALF, 1)
    assert [e.relation_label for e in failures(report)] == [
        f"antipode m(S x id)D({generator}) = 0 [j=1/2]",
        f"antipode m(S x id)D({generator}) = 0 [j=1]",
    ]


ANTIPODE_Y_H = [f"antipode m(S x id)D({g}) = 0 [j={j}]" for j in ("1/2", "1") for g in "YH"]


def test_hopf_rejects_the_opposite_coproduct(monkeypatch):
    """D^op is an algebra map and has the counit too; only the antipode
    identity, now read from the same table, tells it from D."""
    for g in ("Y", "H"):
        monkeypatch.setitem(irrep.COPRODUCT, g, [("e+", g), (g, "e-")])
    assert [e.relation_label for e in failures(verify_hopf(HALF, 1))] == ANTIPODE_Y_H


def test_hopf_rejects_a_wrong_antipode_of_e_minus(monkeypatch):
    honest = irrep.antipodes

    def mutated(legs):
        return {**honest(legs), "e-": legs["e-"]}  # S(e^{-hX}) = e^{-hX}

    monkeypatch.setattr(irrep, "antipodes", mutated)
    assert [e.relation_label for e in failures(verify_hopf(HALF, 1))] == ANTIPODE_Y_H


@pytest.mark.parametrize("basis", ["verma", "diagonal"])
def test_irreps_are_even_in_h(basis):
    """h -> -h leaves every irrep unchanged, so a copy at -h differs from
    one at +h only through its coproduct."""
    for two_j in range(9):
        j = Fraction(two_j, 2)
        r = verma_basis_irrep(j) if basis == "verma" else map_to_deformed(j)
        assert (negate_h(r.X), negate_h(r.Y), negate_h(r.H)) == (r.X, r.Y, r.H)


def test_irrep_json_round_trip():
    r = verma_basis_irrep(Fraction(5, 2))
    again = Irrep.from_obj(r.to_obj(), r.j)
    assert again == r
