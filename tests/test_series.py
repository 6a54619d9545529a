"""Taylor coefficients, and truncated series in the deformation parameter
through the production path: elements of U(e(2)) built from P+ alone
commute, so series_function_apply on them obeys the scalar identities of the
elementary functions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanrep.exact.series import taylor
from jordanrep.ncseries import NCElement, e2_presentation, series_function_apply

from oracles import coefficients, element, order_part

P = e2_presentation()


def F(n, d=1):
    return Fraction(n, d)


def p_plus_series(coeffs, order):
    """sum_k coeffs[k-1] t^k P+^k, an element of positive valuation."""
    return element(P, order, {((0, k, 0), k): F(c) for k, c in enumerate(coeffs, start=1)})


def one(order):
    return NCElement.one(P, order)


def assert_equal(a, b):
    assert a.order == b.order and (a - b).is_zero, a - b


def cauchy(a, b):
    """The first len(a) coefficients of the product of two power series."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def test_taylor_coefficients_satisfy_the_function_identities():
    """The closed forms against identities of the functions, on plain
    coefficient lists as long as the longest series the CLI sums (qe3 at
    order 100 sums 107 coefficients of e^x and ln(1+x))."""
    n = 107
    t = {kind: taylor(kind, n) for kind in
         ("exp", "sinh", "cosh", "ln1p", "arctanh", "inv1p", "sqrt1p")}
    one, one_plus_x = [1] + [0] * (n - 1), [1, 1] + [0] * (n - 2)
    exp_minus = [c * (-1) ** k for k, c in enumerate(t["exp"])]
    assert t["sqrt1p"][0] == 1 and cauchy(t["sqrt1p"], t["sqrt1p"]) == one_plus_x
    assert cauchy(t["inv1p"], one_plus_x) == one
    assert t["exp"][0] == 1 and all(k * t["exp"][k] == t["exp"][k - 1] for k in range(1, n))
    assert cauchy(t["exp"], exp_minus) == one
    assert [c + s for c, s in zip(t["cosh"], t["sinh"])] == t["exp"]
    assert [c - s for c, s in zip(t["cosh"], t["sinh"])] == exp_minus
    assert t["ln1p"][0] == t["arctanh"][0] == 0
    assert all(k * t["ln1p"][k] == t["inv1p"][k - 1] for k in range(1, n))
    assert all(k * t["arctanh"][k] == (k % 2) for k in range(1, n))
    with pytest.raises(KeyError):
        taylor("tan", 3)


def test_ln1p_expansion():
    assert taylor("ln1p", 5) == [F(0), F(1), F(-1, 2), F(1, 3), F(-1, 4)]
    x = NCElement.generator(P, "P+", 3).mul_t(1)
    ln = series_function_apply(x, "ln1p")[0]
    assert ln.order == 4
    assert coefficients(ln) == {((0, k, 0), k): F((-1) ** (k + 1), k) for k in range(1, 5)}


series_args = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=4), min_size=3, max_size=6
).map(lambda c: p_plus_series(c, order=len(c)))


@settings(max_examples=30, deadline=None)
@given(series_args)
def test_inverse_of_one_plus_t(x):
    assert_equal((one(x.order) + x) * series_function_apply(x, "inv1p")[0], one(x.order))


def test_sinh_over_t_coefficients():
    x = NCElement.generator(P, "P+", 5).mul_t(1)
    s = series_function_apply(x, "sinh")[0].div_t(1)
    assert s.order == 5
    assert order_part(s, 0) == {(0, 1, 0): 1}
    assert order_part(s, 2) == {(0, 3, 0): F(1, 6)}
    assert order_part(s, 1) == {}


def test_compose_exp_of_t():
    x = NCElement.generator(P, "P+", 4).mul_t(1)
    exp = series_function_apply(x, "exp")[0]
    coeffs = taylor("exp", 6)
    assert exp.order == 5
    assert coefficients(exp) == {((0, k, 0), k): coeffs[k] for k in range(6)}


@settings(max_examples=30, deadline=None)
@given(series_args)
def test_sqrt1p_squares_back(x):
    root = series_function_apply(x, "sqrt1p")[0]
    assert_equal(root * root, one(x.order) + x)


@settings(max_examples=30, deadline=None)
@given(series_args)
def test_exp_of_ln1p_is_one_plus_x(x):
    ln = series_function_apply(x, "ln1p")[0]
    assert_equal(series_function_apply(ln, "exp")[0], one(x.order) + x)


def test_mixed_orders_truncate_to_smaller():
    a = p_plus_series([1, 2], order=2)
    b = p_plus_series([1, 1, 1, 1], order=4)
    assert (a + b).order == 2 and (b - a).order == 2
    product = a * b
    assert product.order == 2
    assert coefficients(product) == {((0, 2, 0), 2): 1}


def test_mul_t_and_div_t_track_known_order():
    a = NCElement.generator(P, "P+", 2) + NCElement.generator(P, "J", 1).mul_t(1)
    assert a.order == 2
    up = a.mul_t(2)
    assert up.order == 4
    assert coefficients(up) == {((0, 1, 0), 2): 1, ((1, 0, 0), 3): 1}
    down = up.div_t(2)
    assert down.order == 2 and coefficients(down) == coefficients(a)
    with pytest.raises(ValueError):
        a.div_t(1)


def test_terms_above_the_order_are_dropped():
    el = element(P, 2, {((0, 1, 0), 2): F(1), ((0, 1, 0), 3): F(5), ((0, 2, 0), 1): F(0)})
    assert coefficients(el) == {((0, 1, 0), 2): 1}


def test_first_nonzero_takes_lowest_order_then_least_monomial():
    el = element(P, 4, {((0, 0, 1), 3): F(2), ((1, 0, 0), 1): F(-1), ((0, 2, 0), 1): F(5)})
    assert el.first_nonzero() == ("P+^2", 1, 5)
    assert element(P, 4, {}).first_nonzero() is None


@settings(max_examples=60, deadline=None)
@given(series_args)
def test_hyperbolic_identity(x):
    # cosh^2 - sinh^2 = 1 for any commuting argument of positive valuation
    c, s = series_function_apply(x, "cosh", "sinh")
    assert_equal(c * c - s * s, one(x.order))


@settings(max_examples=30, deadline=None)
@given(series_args, st.sampled_from([F(1), F(-1), F(2, 3), F(2)]))
def test_series_over_shared_powers_match_single_series(x, s):
    """Several series summed over one sequence of powers of a scaled argument
    s x equal each series summed on its own, and e^{s x} e^{x} = e^{(s+1) x}."""
    y = x.scale(s)
    shared = series_function_apply(y, "exp", "ln1p", "inv1p")
    single = [series_function_apply(y, kind)[0] for kind in ("exp", "ln1p", "inv1p")]
    for a, b in zip(shared, single, strict=True):
        assert_equal(a, b)
    assert_equal(shared[0] * series_function_apply(x, "exp")[0],
                 series_function_apply(x.scale(s + 1), "exp")[0])
