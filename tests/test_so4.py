from fractions import Fraction

import pytest

from jordanrep import irrep, so4
from jordanrep.cli import main
from jordanrep.errors import DimensionMismatch
from jordanrep.exact import PolyMatrix, TensorSum, commutator
from jordanrep.irrep import casimir, cosh_sinh, map_to_deformed
from jordanrep.so4 import build_so4, verify_so4_coalgebra, verify_so4_relations
from oracles import assemble, failures, nilpotent_apply, subs_h

HALF = Fraction(1, 2)
PAIRS = [(HALF, HALF), (Fraction(1), HALF), (Fraction(1), Fraction(1))]


def exact_rank(m: PolyMatrix, h_value=Fraction(1)) -> int:
    """Gaussian-elimination rank over the rationals at a fixed h."""
    rows = subs_h(m, h_value)
    rank = 0
    col = 0
    n_rows, n_cols = len(rows), len(rows[0])
    while rank < n_rows and col < n_cols:
        pivot = next((r for r in range(rank, n_rows) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank][col]
        for r in range(rank + 1, n_rows):
            if rows[r][col] != 0:
                factor = rows[r][col] / head
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_j_plus_rank_on_four_dim_space():
    jp = build_so4(HALF, HALF).legs["J+"]
    assert jp.rows == 4
    assert exact_rank(jp) == 2


def test_classical_limits():
    r = build_so4(HALF, HALF)
    c1, c2 = r.copies
    g = r.legs
    assert subs_h(g["J0"], 0) == subs_h(c1["H"] + c2["H"], 0)
    assert subs_h(g["K0"], 0) == subs_h(c1["H"] - c2["H"], 0)
    assert subs_h(g["J+"], 0) == subs_h(c1["X"] + c2["X"], 0)
    assert subs_h(g["J-"], 0) == subs_h(c1["Y"] + c2["Y"], 0)


def test_plus_generators_commute_and_are_nilpotent():
    for j1, j2 in PAIRS:
        g = build_so4(j1, j2).legs
        assert commutator(g["J+"], g["K+"]).is_zero
        # terminating exponentials exist for both
        nilpotent_apply("exp", g["J+"])
        nilpotent_apply("exp", g["K+"])


@pytest.mark.parametrize("j1,j2", PAIRS)
def test_relations(j1, j2):
    report = verify_so4_relations(build_so4(j1, j2))
    assert report.passed, [e.relation_label for e in failures(report)]
    assert len(report.entries) == 15


def test_relations_negative_control():
    r = build_so4(HALF, HALF)
    corrupted = r._replace(legs={**r.legs, "K-": -r.legs["K-"]})
    report = verify_so4_relations(corrupted)
    assert not report.passed
    bad = {e.relation_label for e in failures(report)}
    assert any("[J+,K-]" in label for label in bad)
    sample = next(e for e in failures(report) if "[J+,K-]" in e.relation_label)
    assert "mismatch at" in sample.detail


def test_j_triple_satisfies_deformed_sl2():
    for j1, j2 in PAIRS:
        g = build_so4(j1, j2).legs
        jp, jm, j0 = g["J+"], g["J-"], g["J0"]
        assert commutator(j0, jp) == nilpotent_apply("sinh", jp).divide_h().scale(2)
        cosh_jp = nilpotent_apply("cosh", jp)
        assert commutator(j0, jm) == -(jm * cosh_jp + cosh_jp * jm)
        assert commutator(jp, jm) == j0


#: The so(4) legs that the sl(2) coproduct of each COPRODUCT name gives.
J_TRIPLE = {"X": "J+", "Y": "J-", "H": "J0", "e+": "e^{hJ+}", "e-": "e^{-hJ+}"}


@pytest.mark.parametrize("j1,j2", [(HALF, HALF), (Fraction(1), HALF), (Fraction(3, 2), Fraction(1)),
                                   (Fraction(2), Fraction(3, 2)), (Fraction(0), Fraction(2))])
def test_j_triple_is_the_sl2_coproduct(j1, j2):
    """J+-, J0 and e^{±hJ+} are D(X), D(Y), D(H) and D(e^{±hX}) on
    V_{j1} (x) V_{j2}, which is why the sl(2) relation check serves them.  The
    opposite coproduct, each pair's legs swapped, differs on Y and H unless
    one factor is 1x1."""
    g = build_so4(j1, j2).legs
    la, lb = irrep.legs(map_to_deformed(j1)), irrep.legs(map_to_deformed(j2))
    for x, name in J_TRIPLE.items():
        assert g[name] == irrep.contract(irrep.COPRODUCT[x], la, lb, PolyMatrix.kron), name
    for x in ("Y", "H"):
        swapped = [(r, l) for l, r in irrep.COPRODUCT[x]]
        opposite = irrep.contract(swapped, la, lb, PolyMatrix.kron)
        assert (opposite != g[J_TRIPLE[x]]) == (min(j1, j2) >= HALF), x


def test_per_copy_casimirs_central():
    for j1, j2 in PAIRS[:2]:
        rep1, rep2 = map_to_deformed(j1), map_to_deformed(j2)
        sc1, c1 = casimir(rep1)
        sc2, c2 = casimir(rep2)
        assert sc1 and sc2
        legs = build_so4(j1, j2).legs
        # copy 2 carries -h, but its Casimir value has no h to flip
        big1, big2 = legs["1"].scale(c1), legs["1"].scale(c2)
        for name in so4.GENERATOR_NAMES:
            assert commutator(big1, legs[name]).is_zero
            assert commutator(big2, legs[name]).is_zero


# the benchmark's tensor points (3/2, 1) and (3/2, 3/2) as well
@pytest.mark.parametrize("j1,j2", PAIRS + [(Fraction(3, 2), Fraction(1)),
                                           (Fraction(3, 2), Fraction(3, 2))])
def test_coalgebra_two_routes(j1, j2):
    r = build_so4(j1, j2)
    report = verify_so4_coalgebra(r)
    assert report.passed, [e.relation_label for e in failures(report)]
    labels = [e.relation_label for e in report.entries]
    assert sum("coproduct" in label for label in labels) == 6
    assert sum("antipode" in label for label in labels) == 6
    assert sum("counit" in label for label in labels) == 6


def test_coproduct_of_raising_generator_is_primitive():
    r = build_so4(HALF, HALF)
    report = verify_so4_coalgebra(r)
    entry = next(e for e in report.entries if e.relation_label == "coproduct of J+: direct = per-copy")
    assert entry.status == "pass"


def test_coalgebra_negative_control_matches_assembled_oracle(monkeypatch):
    r = build_so4(Fraction(1), HALF)
    # a stray J0 (x) K0 in route (a)'s J0; its counit is zero, so only the
    # coproduct comparison sees it
    monkeypatch.setitem(so4.COPRODUCT_DIRECT, "J0",
                        so4.COPRODUCT_DIRECT["J0"] + [("J0", "K0")])
    report = verify_so4_coalgebra(r)
    assert [e.relation_label for e in failures(report)] == [
        "coproduct of J0: direct = per-copy"
    ]
    per_copy = so4._coproducts_per_copy(r)["J0"]
    i, j, lhs, rhs = assemble(so4._coproducts_direct(r.legs)["J0"]).first_difference(
        assemble(per_copy))
    entry = failures(report)[0]
    assert entry.detail == f"first mismatch at ({i},{j})"
    assert entry.residual_sample == f"lhs={lhs} rhs={rhs}"


def test_coalgebra_refuses_an_off_grade_pair(monkeypatch):
    # J+ (x) K0 has weight 2, the coproduct of J0 weight 0: no comparison
    # at h = 1 can be made, so the check raises instead of reporting
    r = build_so4(HALF, HALF)
    honest = so4._coproducts_per_copy

    def with_off_grade_pair(rep):
        sums = honest(rep)
        sums["J0"] = sums["J0"] + TensorSum([(rep.legs["J+"], rep.legs["K0"])])
        return sums

    monkeypatch.setattr(so4, "_coproducts_per_copy", with_off_grade_pair)
    with pytest.raises(DimensionMismatch):
        verify_so4_coalgebra(r)


def test_counit_check_rejects_a_wrong_right_leg(monkeypatch):
    r = build_so4(HALF, HALF)
    # e^{-hK+} (x) K- in place of e^{-hK+} (x) J-, the pair with counit 1
    monkeypatch.setitem(so4.COPRODUCT_DIRECT, "J-",
                        [("J-", "cosh"), ("e^{-hK+}", "K-"), ("K-", "sinh")])
    report = verify_so4_coalgebra(r)
    assert [e.relation_label for e in failures(report)] == [
        "coproduct of J-: direct = per-copy",
        "counit (eps x id) on J-",
    ]


@pytest.mark.parametrize("j1,j2", [(0, Fraction(3, 2)), (HALF, 1), (Fraction(3, 2), 1)])
def test_exponentials_factor_over_the_copies(j1, j2):
    """Every exponential leg, a Kronecker product of the per-copy group-likes,
    against the series on the full tensor space, which stays the reference."""
    g = build_so4(j1, j2).legs
    jp, kp = g["J+"], g["K+"]
    assert g["1"] == PolyMatrix.identity(jp.weights)
    for name, kind, m in (("e^{hJ+}", "exp", jp), ("e^{-hJ+}", "exp", -jp),
                          ("e^{hK+}", "exp", kp), ("e^{-hK+}", "exp", -kp),
                          ("cosh", "cosh", jp), ("sinh", "sinh", jp)):
        assert g[name] == nilpotent_apply(kind, m), name
    for j in (j1, j2):
        rep = map_to_deformed(j)
        assert cosh_sinh(rep.e[+1], rep.e[-1]) == (nilpotent_apply("cosh", rep.X),
                                                   nilpotent_apply("sinh", rep.X))


@pytest.mark.parametrize("argv, largest", [
    (["verify", "so4", "--j1", "1/2", "--j2", "1"], 3),
    (["verify", "hopf", "--j1", "1", "--j2", "1/2"], 3),
])
def test_series_run_on_single_copies_only(monkeypatch, capsys, argv, largest):
    """Every series is evaluated on one factor's matrices, none on the
    tensor space of dimension (2j1+1)(2j2+1): the band sums of the map,
    e^{±hX} included, and no matrix power sum at all."""
    rows = {"power_sum": [], "_band": []}
    honest_power_sum, honest_band = irrep.power_sum, irrep._band

    def power_sum(series, x, one):
        rows["power_sum"].append(x.rows)
        return honest_power_sum(series, x, one)

    def band(s, coeffs, weights, weight):
        rows["_band"].append(len(weights))
        return honest_band(s, coeffs, weights, weight)

    monkeypatch.setattr(irrep, "power_sum", power_sum)
    monkeypatch.setattr(irrep, "_band", band)
    assert main(argv) == 0
    capsys.readouterr()
    assert rows["power_sum"] == []
    assert rows["_band"] and max(rows["_band"]) <= largest


def _corrupt(rep):
    """Put e^{+hX} in place of e^{-hX} in the group-likes of rep."""
    return rep._replace(e={**rep.e, -1: rep.e[+1]})


def test_a_corrupted_group_like_is_caught(monkeypatch):
    """The checks read their exponentials from the shared group-likes; a wrong
    one in either factor fails the relations and one of the two coalgebra
    comparisons.  With honest generators and the wrong exponential legs the
    coproducts fail for copy 1 and the antipodes for copy 2; with the whole
    table built from the wrong group-likes both coproduct routes read them
    and agree, and the antipodes fail for either copy."""
    coproducts = [f"coproduct of {g}: direct = per-copy" for g in ("J-", "J0", "K-", "K0")]
    antipodes = [f"antipode of {g}: direct = per-copy" for g in ("J-", "J0", "K-", "K0")]
    exponentials = (*so4._GROUP_LIKES, "cosh", "sinh")
    r = build_so4(HALF, 1)
    honest = irrep.map_to_deformed
    for j, expected in ((HALF, coproducts), (1, antipodes)):   # copy 1, then copy 2
        monkeypatch.setattr(so4, "map_to_deformed",
                            lambda spin, j=j: _corrupt(honest(spin)) if spin == j else honest(spin))
        wrong = build_so4(HALF, 1)
        mixed = r._replace(legs={**r.legs, **{n: wrong.legs[n] for n in exponentials}},
                           copies=wrong.copies)
        for rep, coalgebra in ((mixed, expected), (wrong, antipodes)):
            assert len(failures(verify_so4_relations(rep))) == 10
            assert [e.relation_label for e in failures(verify_so4_coalgebra(rep))] == coalgebra

    monkeypatch.setattr(irrep, "map_to_deformed",
                        lambda spin: _corrupt(honest(spin)) if spin == 1 else honest(spin))
    assert [e.relation_label for e in failures(irrep.verify_hopf(HALF, 1))] == [
        "coproduct [H,X] = (2/h) sinh(hX)",
        "coproduct [H,Y] = -{Y, cosh(hX)}",
        "antipode m(S x id)D(Y) = 0 [j=1]",
        "antipode m(S x id)D(H) = 0 [j=1]",
    ]


LOWERING = ("J-", "J0", "K-", "K0")


def test_per_copy_route_rejects_the_opposite_coproduct(monkeypatch):
    """Route (b) reads the sl(2) table: D^op there parts it from route (a)
    on every generator that carries a group-like, and on nothing else."""
    for g in ("Y", "H"):
        monkeypatch.setitem(irrep.COPRODUCT, g, [("e+", g), (g, "e-")])
    r = build_so4(1, HALF)
    assert verify_so4_relations(r).passed
    assert [e.relation_label for e in failures(verify_so4_coalgebra(r))] == [
        f"coproduct of {g}: direct = per-copy" for g in LOWERING]


def test_per_copy_antipodes_reject_a_wrong_antipode_of_e_minus(monkeypatch):
    honest = irrep.antipodes

    def mutated(legs):
        return {**honest(legs), "e-": legs["e-"]}  # S(e^{-hX}) = e^{-hX}

    for module in (irrep, so4):
        monkeypatch.setattr(module, "antipodes", mutated)
    r = build_so4(1, HALF)
    assert verify_so4_relations(r).passed
    assert [e.relation_label for e in failures(verify_so4_coalgebra(r))] == [
        f"antipode of {g}: direct = per-copy" for g in LOWERING]
