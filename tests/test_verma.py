from fractions import Fraction

import pytest

from jordanrep.exact import LAM, ZERO
from jordanrep.verma import (
    ElementTable,
    build_table,
    h_column,
    odd_compositions,
    z_product,
)

from oracles import (
    brute_force_actions,
    closed_form_oracle,
    enumerate_odd_tuples,
    is_homogeneous_h,
    subs_lam,
    with_h,
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
    # an odd total or an odd number of odd parts has no composition
    assert odd_compositions(7, 2) == []
    assert odd_compositions(8, 3) == []


def test_z_product_two_factors():
    t = build_table(4)
    # X_2^1 X_1^0 = 2(lam-1) * lam
    assert z_product(0, 2, (1, 1), t) == 2 * (LAM - 1) * LAM


def test_z_product_missing_element():
    small = ElementTable(LAM)
    with pytest.raises(KeyError):
        z_product(1, 2, (1, 1), small)


def test_h_element_base_and_golden():
    t = build_table(4)
    for n in range(5):
        assert t.H(n, n) == LAM - 2 * n
    h_0, h_1 = h_column(2, 2, t)   # coefficients of h^2
    assert subs_lam(h_0, 7) == -42
    assert subs_lam(h_1, 7) == -174


def test_x_element_base_and_golden():
    t = build_table(4)
    for n in range(4):
        assert t.X(n + 1, n) == (n + 1) * (LAM - n)
    assert subs_lam(t.X(3, 0), 7) == -42     # coefficients of h^2
    assert subs_lam(t.X(4, 1), 7) == -216


def test_closed_form_oracle_values():
    assert closed_form_oracle("rho2", 0) == -LAM * (LAM - 1)
    assert subs_lam(closed_form_oracle("sigma2", 5), 7) == -3024
    assert subs_lam(closed_form_oracle("rho4", 0), 7) == 252
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
    assert t.X(1, 1) == ZERO      # parity
    assert t.H(2, 1) == ZERO      # parity
    assert t.X(2, -1) == ZERO     # below the module
    with pytest.raises(KeyError):     # above the filled level
        t.H(10, 0)


def test_homogeneity_of_every_stored_element():
    t = build_table(9)
    items = list(t.stored_items())
    assert len(items) == len(t._H) + len(t._X)
    for (kind, n, m), value in items:
        gap = n - m
        degree = gap if kind == "H" else gap - 1
        assert value == with_h(t.H(n, m) if kind == "H" else t.X(n, m), degree), (kind, n, m)
        assert is_homogeneous_h(value, degree), (kind, n, m)


def test_closed_form_equivalence_symbolic():
    t = build_table(9)
    for n in range(5):
        assert t.H(n + 2, n) == closed_form_oracle("rho2", n)
        assert t.X(n + 3, n) == closed_form_oracle("sigma2", n)
        assert t.H(n + 4, n) == closed_form_oracle("rho4", n)
        assert t.X(n + 5, n) == closed_form_oracle("sigma4", n)


def test_every_table_value_lies_in_the_ring_of_lam():
    """Symbolic coefficients carry no h; rational ones are Fractions, never
    bare ints, out-of-range zeros included."""
    t = build_table(9)
    assert all(dh == 0 for v in (*t._H.values(), *t._X.values()) for (_, dh), _ in v.items())
    q = build_table(9, Fraction(4))
    values = [*q._H.values(), *q._X.values(), q.H(2, 1), q.X(1, 1), z_product(1, 2, (1, 1), q)]
    assert all(type(v) is Fraction for v in values)


@pytest.mark.parametrize("lam", [0, 1, 7, Fraction(-3, 2), Fraction(5, 3)])
def test_table_over_q_is_the_symbolic_table_at_lam(lam):
    """Putting a value in for lam is a ring homomorphism, so the recursion
    run over Q at lam gives the symbolic table evaluated there."""
    lam = Fraction(lam)
    for max_level in range(10):
        symbolic, rational = build_table(max_level), build_table(max_level, lam)
        assert rational._H.keys() == symbolic._H.keys()
        assert rational._X.keys() == symbolic._X.keys()
        for n in range(max_level + 1):
            for m in range(n + 1):
                assert rational.H(n, m) == subs_lam(symbolic.H(n, m), lam), ("H", n, m)
                assert rational.X(n, m) == subs_lam(symbolic.X(n, m), lam), ("X", n, m)


def test_direct_action_oracle_matches_table():
    # brute-force construction of the action from the defining relations,
    # levels up to 6 (spins through 5/2), symbolic weight
    max_level = 6
    x_act, h_act = brute_force_actions(max_level)
    t = build_table(max_level)
    for n in range(max_level + 1):
        for m in range(0, n, 1):
            if (n - m) % 2 == 1:
                assert x_act[n].get(m, ZERO) == with_h(t.X(n, m), n - m - 1), ("X", n, m)
        for m in range(n, -1, -2):
            assert h_act[n].get(m, ZERO) == with_h(t.H(n, m), n - m), ("H", n, m)
