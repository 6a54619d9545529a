from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanrep.exact import H, LAM, ONE, ZERO, BiPoly

from oracles import constant_value, is_homogeneous_h, subs_lam, term, with_h


def test_add_trivial():
    assert LAM + LAM == 2 * LAM


def test_mul_by_identity():
    p = LAM - 2
    assert p * ONE == p


def test_specialized_product_matches_golden_entry():
    # -lam(lam-1) h^2 at lam=7 is the golden (0,2) entry of the 8x8 H matrix
    p = with_h(-LAM * (LAM - 1), 2)
    assert subs_lam(p, 7) == term(-42, 0, 2)


def test_specialize_lambda_examples():
    assert subs_lam(LAM - 0, 2) == term(2, 0, 0)             # lam - 2n, n=0, j=1
    p = 6 * (LAM - 5)                                        # (n+1)(lam - n) at n=5
    assert subs_lam(p, 7) == term(12, 0, 0)


def test_specialize_sigma2_partial_sum():
    # independent oracle: rho2(k) at lam=7 evaluated directly from its formula,
    # then summed k=0..5
    lam = Fraction(7)

    def rho2(n):
        acc = Fraction(0)
        for k in range(n):
            acc -= (k + 1) * (k + 2) * (lam - k) * (lam - k - 1)
        acc -= Fraction((n + 1) * (n + 2), 2) * (lam - n) * (lam - n - 1)
        return acc

    assert sum(rho2(k) for k in range(6)) == -3024


def test_canonical_form_drops_zero_terms():
    p = LAM - LAM
    assert list(p.items()) == []
    assert p == ZERO


def test_homogeneity_query():
    assert is_homogeneous_h(term(5, 3, 2), 2)
    assert not is_homogeneous_h(term(5, 3, 2) + H, 2)
    assert is_homogeneous_h(ZERO, 4)


def test_constant_value():
    assert constant_value(term(Fraction(3, 4), 0, 0)) == Fraction(3, 4)
    assert constant_value(ZERO) == 0
    with pytest.raises(ValueError):
        constant_value(LAM)


def test_json_round_trip():
    p = term(Fraction(-21, 2), 0, 2) + term(1, 3, 0) - 5
    obj = p.to_obj()
    assert {"c": "-21/2", "l": 0, "h": 2} in obj
    assert BiPoly.from_obj(obj) == p


coeffs = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)
polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=4
).map(BiPoly)


@settings(max_examples=120, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + b == b + a
    assert a - a == ZERO
