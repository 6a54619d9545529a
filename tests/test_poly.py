from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanrep.exact.poly import LAM, MAX_EXPONENT, ZERO, BiPoly, as_fraction, rational
from jordanrep.latexout import bipoly_latex

from oracles import ONE, constant_value, is_homogeneous_h, subs_lam, term, with_h

H = term(1, 0, 1)   # the deformation symbol h


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


# the text of failure reports and of LaTeX output: highest degrees first, unit
# coefficients dropped, a leading minus glued to its term
WRITTEN = [
    (ZERO, "0", "0"),
    (LAM, "lam", r"\lambda"),
    (term(Fraction(-1, 2), 0, 0), "-1/2", r"-\frac{1}{2}"),
    (-LAM * LAM * H + 3, "-lam^2*h + 3", r"-\lambda^{2} h + 3"),
    (H * H - LAM, "-lam + h^2", r"-\lambda + h^{2}"),
    (term(Fraction(-7, 2), 2, 3) + H + term(Fraction(1, 3), 1, 0) - 5,
     "-7/2*lam^2*h^3 + 1/3*lam + h - 5",
     r"-\frac{7}{2} \lambda^{2} h^{3} + \frac{1}{3} \lambda + h - 5"),
]


@pytest.mark.parametrize("p, text, latex", WRITTEN)
def test_str_and_latex_of_polynomials(p, text, latex):
    assert str(p) == text
    assert bipoly_latex(p) == latex


def test_rational_exponent_bound_and_zero_denominator():
    """An exponent at MAX_EXPONENT in magnitude is read; one past it is
    refused before Fraction expands the power of ten, and a zero denominator
    is a ValueError too, which argparse reports as a usage error."""
    assert rational(f"1e{MAX_EXPONENT}") == 10**MAX_EXPONENT
    assert rational(f"1e+{MAX_EXPONENT}") == 10**MAX_EXPONENT
    assert rational(f"-2E-{MAX_EXPONENT}") == Fraction(-2, 10**MAX_EXPONENT)
    for text in (f"1e{MAX_EXPONENT + 1}", f"1E-{MAX_EXPONENT + 1}", "1e100000000"):
        with pytest.raises(ValueError, match="exponent above"):
            rational(text)
    with pytest.raises(ValueError, match="zero denominator"):
        rational("1/0")


def test_rational_refuses_a_space_and_a_leading_plus():
    """Fraction reads " 1" and "+1"; a spin does not, so no outside number
    does: the sign "+" is read only in a decimal exponent."""
    for text in ("+1", " 1", "1 ", "1 / 2", "\t-1", "+ 1", ""):
        with pytest.raises(ValueError, match="leading '\\+'"):
            rational(text)
    assert rational("-1") == -1 and rational("1e+2") == 100


def test_as_fraction_takes_ints_and_fractions_only():
    assert as_fraction(3) == 3 and as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    for value in ("1/2", 0.5):
        with pytest.raises(TypeError):
            as_fraction(value)


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
