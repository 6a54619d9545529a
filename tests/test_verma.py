import pytest

from jordanrep.errors import BadParity, MissingElement
from jordanrep.exact import LAM, ZERO, BiPoly
from jordanrep.verma import (
    ElementTable,
    build_table,
    h_column,
    odd_compositions,
    x_element,
    z_product,
)

from oracles import (
    brute_force_actions,
    closed_form_oracle,
    enumerate_odd_tuples,
    is_homogeneous_h,
    term,
)


def test_odd_compositions_of_eight_into_two():
    assert set(odd_compositions(8, 2)) == {(7, 1), (1, 7), (5, 3), (3, 5)}


def test_odd_compositions_minimal():
    assert odd_compositions(2, 2) == [(1, 1)]


def test_odd_composition_counts_against_enumeration():
    for total in (2, 4, 6, 8, 10):
        for parts in range(2, total + 1, 2):
            assert sorted(odd_compositions(total, parts)) == sorted(
                enumerate_odd_tuples(total, parts)
            )


def test_odd_compositions_are_lexicographic():
    comps = odd_compositions(8, 4)
    assert comps == sorted(comps)
    assert len(comps) == 10


def test_odd_compositions_parity_errors():
    with pytest.raises(BadParity):
        odd_compositions(7, 2)
    with pytest.raises(BadParity):
        odd_compositions(8, 3)


def test_z_product_two_factors():
    t = build_table(4)
    # X_2^1 X_1^0 = 2(lam-1) * lam
    assert z_product(0, 2, (1, 1), t) == BiPoly.const(2) * (LAM - 1) * LAM


def test_z_product_missing_element():
    small = ElementTable(0)
    with pytest.raises(MissingElement):
        z_product(1, 2, (1, 1), small)


def test_h_element_base_and_golden():
    t = build_table(4)
    for n in range(5):
        assert t.H(n, n) == LAM - 2 * n
    h_0, h_1 = h_column(2, 2, t)
    assert h_0.subs_lam(7) == term(-42, 0, 2)
    assert h_1.subs_lam(7) == term(-174, 0, 2)


def test_x_element_base_and_golden():
    t = build_table(4)
    for n in range(4):
        assert t.X(n + 1, n) == BiPoly.const(n + 1) * (LAM - n)
    assert x_element(0, 2, t).subs_lam(7) == term(-42, 0, 2)
    assert x_element(1, 2, t).subs_lam(7) == term(-216, 0, 2)


def test_closed_form_oracle_values():
    assert closed_form_oracle("rho2", 0) == -LAM * (LAM - 1)
    assert closed_form_oracle("sigma2", 5).subs_lam(7) == BiPoly.const(-3024)
    assert closed_form_oracle("rho4", 0).subs_lam(7) == BiPoly.const(252)
    with pytest.raises(ValueError):
        closed_form_oracle("rho6", 0)


def test_build_table_minimal():
    t = build_table(1)
    assert t.H(0, 0) == LAM
    assert t.H(1, 1) == LAM - 2
    assert t.X(1, 0) == LAM
    assert list(t.stored_items())[0][0] == ("H", 0, 0)


def test_build_table_is_deterministic_and_idempotent():
    a = dict(build_table(6).stored_items())
    b = dict(build_table(6).stored_items())
    assert a == b


def test_tables_are_prefix_closed():
    # `verify sl2` builds one table for its largest j and reads every smaller
    # irrep from it
    small = dict(build_table(5).stored_items())
    large = dict(build_table(9).stored_items())
    assert small and {key: large[key] for key in small} == small


def test_accessors_zero_outside_domain():
    t = build_table(3)
    assert t.X(1, 1).is_zero      # parity
    assert t.H(2, 1).is_zero      # parity
    assert t.X(2, -1).is_zero     # below the module
    with pytest.raises(MissingElement):
        t.H(10, 0)


def test_homogeneity_of_every_stored_element():
    t = build_table(9)
    for (kind, n, m), value in t.stored_items():
        gap = n - m
        degree = gap if kind == "H" else gap - 1
        assert is_homogeneous_h(value, degree), (kind, n, m)


def test_closed_form_equivalence_symbolic():
    t = build_table(9)
    for n in range(5):
        assert t.H(n + 2, n) == closed_form_oracle("rho2", n).mul_h(2)
        assert t.X(n + 3, n) == closed_form_oracle("sigma2", n).mul_h(2)
        assert t.H(n + 4, n) == closed_form_oracle("rho4", n).mul_h(4)
        assert t.X(n + 5, n) == closed_form_oracle("sigma4", n).mul_h(4)


def test_direct_action_oracle_matches_table():
    # brute-force construction of the action from the defining relations,
    # levels up to 6 (spins through 5/2), symbolic weight
    max_level = 6
    x_act, h_act = brute_force_actions(max_level)
    t = build_table(max_level)
    for n in range(max_level + 1):
        for m in range(0, n, 1):
            if (n - m) % 2 == 1:
                assert x_act[n].get(m, ZERO) == t.X(n, m), ("X", n, m)
        for m in range(n, -1, -2):
            assert h_act[n].get(m, ZERO) == t.H(n, m), ("H", n, m)
