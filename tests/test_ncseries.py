import math
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanrep import ncseries
from jordanrep.cli import main
from jordanrep.errors import InputError
from jordanrep.ncseries import (
    FIELD_BITS,
    AlgebraPresentation,
    NCElement,
    _e3_deformed,
    _normal_order_cached,
    _pair,
    e2_presentation,
    e3_presentation,
    momentum_spectrum,
    series_function_apply,
    suite_e2,
    suite_e3,
    suite_qe3,
)

from oracles import (coefficients, element, failures, letter_sets, normal_order,
                     normal_order_scheduled, order_part, pack, product_by_monomial, unpack,
                     word_of)


def F(n, d=1):
    return Fraction(n, d)


def test_presentations_pass_jacobi():
    e2_presentation()
    e3_presentation()


def test_broken_presentation_fails_jacobi():
    # sl(2)-like rules with one structure constant corrupted
    E, H, F_ = 0, 1, 2
    with pytest.raises(ValueError, match="Jacobi identity fails on generators 0,1,2"):
        AlgebraPresentation(
            names=("E", "H", "F"),
            rules={
                (H, E): {E: 2},
                (F_, E): {E: -1},   # should close on H, not E
                (F_, H): {F_: 2},
            },
        )


def test_non_integer_structure_constant_is_refused():
    # [H, E] = E/2: a presentation with integer constants only can be ordered on ints
    with pytest.raises(ValueError, match="non-integer structure constant"):
        AlgebraPresentation(names=("E", "H"), rules={(1, 0): {0: F(1, 2)}})


@pytest.mark.parametrize("rules, message", [
    ({(0, 1): {0: 1}}, "must satisfy a > b"),
    ({(1, 1): {0: 1}}, "must satisfy a > b"),
    ({(1, 0): {2: 1}}, "foreign generator"),   # a bracket onto a third generator
    ({(1, 0): {-1: 1}}, "foreign generator"),
])
def test_malformed_rules_are_refused(rules, message):
    with pytest.raises(ValueError, match=message):
        AlgebraPresentation(names=("E", "H"), rules=rules)


def e3_rules() -> dict:
    """The rules of e3_presentation in index form, read off its packed rules."""
    p = e3_presentation()
    return {(p.units.index(x), p.units.index(y)): {p.units.index(z): k for z, k in combo.items()}
            for (x, y), combo in p.rules.items()}


def test_e3_rules_rebuild_the_presentation():
    # the nine honest rules, read back to index form, pass and pack as before
    p, rules = e3_presentation(), e3_rules()
    assert len(rules) == 9
    assert AlgebraPresentation(p.names, rules).rules == p.rules


@pytest.mark.parametrize("corrupt", ["double", "negate", "drop"])
@pytest.mark.parametrize("pair", sorted(e3_rules()))
def test_every_e3_rule_is_held_by_jacobi(pair, corrupt):
    """Doubling, negating or dropping any one of the nine brackets of e(3)
    breaks the Jacobi identity, so the check guards each rule."""
    p, rules = e3_presentation(), e3_rules()
    if corrupt == "drop":
        del rules[pair]
    else:
        rules[pair] = {c: k * (2 if corrupt == "double" else -1) for c, k in rules[pair].items()}
    with pytest.raises(ValueError, match="Jacobi"):
        AlgebraPresentation(p.names, rules)


PRESENTATIONS = (e2_presentation(), e3_presentation())


def monomials(p, degree=4):
    """Exponent vectors of total degree at most ``degree``."""
    letters = st.lists(st.integers(0, p.size - 1), max_size=degree)
    return letters.map(lambda w: tuple(w.count(idx) for idx in range(p.size)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_monomial_pair_product_matches_scheduled_oracle(data):
    """The cached pair product, through the commuting shortcut or the
    recursion on shorter pairs, equals the normal form of the concatenated
    word under a freely chosen swap order.  Degree 7 reaches the chains in
    which a bracket makes a larger letter that must move again (Pi+ J- ->
    Pi0, then Pi0 J- -> Pi-); a recursion that drops the ma'.[x, y] term
    fails here."""
    p = data.draw(st.sampled_from(PRESENTATIONS))
    ma, mb = data.draw(monomials(p, degree=7)), data.draw(monomials(p, degree=7))
    pick = data.draw(st.sampled_from([lambda pos: pos[0], lambda pos: pos[-1]]))
    product = _pair(pack(p, ma, 0), pack(p, mb, 0), p)
    assert {unpack(p, m)[0]: c for m, c in product.items()} == normal_order_scheduled(
        word_of(ma) + word_of(mb), p, pick
    )


def test_bracketed_pair_is_not_the_exponent_sum():
    # negative control of the shortcut: Pi+ J0 = J0 Pi+ - 2 Pi+, not J0 Pi+ alone
    p = e3_presentation()
    pi_p, j0 = p.units[3], p.units[1]
    product = {unpack(p, m)[0]: c for m, c in _normal_order_cached(pi_p, j0, p).items()}
    assert product != {(0, 1, 0, 1, 0, 0): 1}
    assert product == {(0, 1, 0, 1, 0, 0): 1, (0, 0, 0, 1, 0, 0): -2}


def monomial(p, mono) -> NCElement:
    return element(p, 0, {(mono, 0): 1})


def held(p, key: int) -> int:
    """The letters a packed key holds, as the guard bits of its nonzero fields."""
    return (key + p.carry) & p.guard


def as_guard_bits(p, bits: int) -> int:
    """A bit set over generator indices as the guard bits of their fields."""
    return sum(1 << (s + FIELD_BITS - 1) for i, s in enumerate(p.offsets) if bits >> i & 1)


TOP = (1 << (FIELD_BITS - 1)) - 1  # the largest exponent a field stores


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_letter_sets_match_the_per_letter_oracle(data):
    """held() and blocked[] of a packed key equal the letter-by-letter sets,
    with the power field set and with full fields (2^15 - 1) next to empty
    ones, where a carry out of a field would show."""
    p = data.draw(st.sampled_from(PRESENTATIONS))
    exponent = st.one_of(st.just(0), st.just(TOP), st.integers(0, TOP))
    mono = data.draw(st.tuples(*[exponent] * p.size))
    key = pack(p, mono, data.draw(st.integers(0, 1 << 20)))
    oracle_held, oracle_blocked = letter_sets(p, key)
    assert held(p, key) == as_guard_bits(p, oracle_held)
    assert p.blocked[held(p, key)] == as_guard_bits(p, oracle_blocked)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mask_test_takes_the_shortcut_exactly_for_sliding_letters(data):
    """A monomial pair takes the shortcut (its letter sets miss each other)
    exactly when every inverted letter pair (a of ma, b of mb, a > b)
    multiplies, by the scheduled oracle, to its exponent sum; then the pair
    does too, and the element product agrees with the oracle either way.
    The converse does not hold for the whole pair: in e(2), P+P- times J is
    J P+ P- although both letters are bracketed with J, because the two
    brackets cancel."""
    p = data.draw(st.sampled_from(PRESENTATIONS))
    ma, mb = data.draw(monomials(p)), data.draw(monomials(p))
    first = lambda pos: pos[0]
    shortcut = not p.blocked[held(p, pack(p, ma, 0))] & held(p, pack(p, mb, 0))
    sliding = all(
        normal_order_scheduled((a, b), p, first) == {tuple(map((a, b).count, range(p.size))): 1}
        for a in set(word_of(ma)) for b in set(word_of(mb)) if a > b
    )
    assert shortcut == sliding
    oracle = normal_order_scheduled(word_of(ma) + word_of(mb), p, first)
    if shortcut:
        assert oracle == {tuple(map(add, ma, mb)): 1}
    product = monomial(p, ma) * monomial(p, mb)
    assert {mono: c for (mono, _), c in coefficients(product).items()} == oracle


def test_exponent_at_the_guard_bit_is_refused():
    # 2^15 is the guard bit of a 16-bit field: it is refused as input, and a
    # product whose exponent would reach it raises rather than carry
    p = e2_presentation()
    top = 1 << (FIELD_BITS - 1)
    with pytest.raises(ValueError, match="do not fit"):
        element(p, 0, {((0, top, 0), 0): 1})
    half = monomial(p, (0, top // 2, 0))
    assert coefficients(half * monomial(p, (0, top // 2 - 1, 0))) == {((0, top - 1, 0), 0): 1}
    with pytest.raises(ValueError, match="guard bit"):
        half * half  # the letters slide: one key addition
    with pytest.raises(ValueError, match="guard bit"):
        monomial(p, (0, 1, 0)) * monomial(p, (1, top - 1, 0))  # bracketed: P+ J = J P+ - P+


COEFFS = st.sampled_from([F(1), F(-1), F(1, 2), F(-2, 3), F(5, 7), F(3, 10), F(7)])


@st.composite
def inhomogeneous_elements(draw, p):
    """Elements that carry some monomials at several powers of the parameter."""
    order = draw(st.integers(1, 5))
    terms = {}
    for mono in draw(st.lists(monomials(p, degree=3), min_size=0, max_size=4, unique=True)):
        for k in draw(st.lists(st.integers(0, order), min_size=1, max_size=3, unique=True)):
            terms[(mono, k)] = draw(COEFFS)
    return element(p, order, terms)


def assert_canonical(el: NCElement):
    """Nonzero int numerators at known powers over a positive denominator
    with no common factor; the zero element has denominator 1."""
    assert type(el.den) is int and el.den > 0
    assert all(type(n) is int and n != 0 for n in el.terms.values())
    assert all(unpack(el.presentation, key)[1] <= el.order for key in el.terms)
    assert gcd(el.den, *el.terms.values()) == 1
    if el.is_zero:
        assert el.den == 1


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_flat_product_is_exact_on_inhomogeneous_elements(data):
    p = data.draw(st.sampled_from(PRESENTATIONS))
    x = data.draw(inhomogeneous_elements(p))
    y = data.draw(inhomogeneous_elements(p))
    product = x * y
    expected = product_by_monomial(x, y)
    assert product.order == expected.order == min(x.order, y.order)
    assert coefficients(product) == coefficients(expected)
    assert_canonical(product)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([3, F(-7, 6), F(10, 3), 0]))
def test_results_are_canonical_and_exact(data, q):
    p = data.draw(st.sampled_from(PRESENTATIONS))
    x, y, z = (data.draw(inhomogeneous_elements(p)) for _ in range(3))
    results = [x, y, x + y, x - y, x - x, x + x.scale(-1), -x, x * y, y * x, x.scale(q),
               x.mul_t(2), x.mul_t(2).div_t(1), (x * y).scale(q) + x * y,
               series_function_apply(x.mul_t(1), "exp")[0],
               series_function_apply(y.mul_t(1).scale(q), "sqrt1p")[0]]
    for el in results:
        assert_canonical(el)
    assert (x - x).den == (x + x.scale(-1)).den == x.scale(0).den == 1
    left, right = (x * y) * z.scale(q), x * (y * z.scale(q))
    assert left.terms == right.terms and left.den == right.den
    for a, b in ((x, y), (y, x)):
        s = a + b - b
        assert s.order == min(x.order, y.order)
        assert coefficients(s) == {key: c for key, c in coefficients(a).items()
                                   if key[1] <= s.order}
    assert coefficients(x.scale(q)) == {key: c * q for key, c in coefficients(x).items() if q}


def test_inhomogeneous_product_cancels_across_powers():
    # (P+ + t P+)(P+ - t P+) = P+^2 - t^2 P+^2: the t^1 terms cancel exactly
    p = e2_presentation()
    pp = NCElement.generator(p, "P+", 3)
    product = (pp + pp.mul_t(1)) * (pp - pp.mul_t(1))
    assert coefficients(product) == {((0, 2, 0), 0): 1, ((0, 2, 0), 2): -1}


def test_normal_order_single_swap():
    p = e3_presentation()
    el = normal_order(("J+", "J-"), p, order=4)
    jm_jp = normal_order(("J-", "J+"), p, order=4)
    j0 = NCElement.generator(p, "J0", 4)
    assert (el - jm_jp - j0).is_zero


def test_normal_order_commuting_translations():
    p = e3_presentation()
    el = normal_order(("Pi-", "Pi+"), p, order=2)
    assert coefficients(el) == {((0, 0, 0, 1, 0, 1), 0): 1} and el.order == 2


def test_normal_order_schedules_agree(rng):
    # the product of the word's generators, one at a time, against the
    # scheduled reducer with the rightmost and with a random swap
    for p in (e2_presentation(), e3_presentation()):
        for _ in range(60):
            word = tuple(rng.randrange(p.size) for _ in range(rng.randint(0, 5)))
            product = NCElement.one(p, 0)
            for idx in word:
                product = product * NCElement.generator(p, p.names[idx], 0)
            reference = {mono: c for (mono, _), c in coefficients(product).items()}
            assert normal_order_scheduled(word, p, lambda pos: pos[-1]) == reference
            assert normal_order_scheduled(
                word, p, lambda pos: pos[rng.randrange(len(pos))]
            ) == reference


def test_normal_order_respects_associative_regrouping(rng):
    p = e3_presentation()
    for _ in range(40):
        u = tuple(rng.randrange(p.size) for _ in range(2))
        v = tuple(rng.randrange(p.size) for _ in range(2))
        combined = normal_order(u + v, p, order=3)
        regrouped = normal_order(u, p, order=3) * normal_order(v, p, order=3)
        assert (combined - regrouped).is_zero


def test_series_function_ln_map():
    # (1/w) ln(1 + w Pi+) = Pi+ - (w/2) Pi+^2 + (w^2/3) Pi+^3 ...
    p = e3_presentation()
    pi_p = NCElement.generator(p, "Pi+", 3)
    result = series_function_apply(pi_p.mul_t(1), "ln1p")[0].div_t(1)
    mono = lambda k: (0, 0, 0, k, 0, 0)
    values = coefficients(result)
    assert values[(mono(1), 0)] == 1
    assert values[(mono(2), 1)] == F(-1, 2)
    assert values[(mono(3), 2)] == F(1, 3)


def test_series_function_arctanh_map():
    # (2/h) arctanh(h P+ / 2) = P+ + (h^2/12) P+^3 + ...
    p = e2_presentation()
    pp = NCElement.generator(p, "P+", 4)
    result = series_function_apply(pp.mul_t(1).scale(F(1, 2)), "arctanh")[0].div_t(1).scale(2)
    values = coefficients(result)
    assert values[((0, 1, 0), 0)] == 1
    assert values[((0, 3, 0), 2)] == F(1, 12)


def test_series_function_sqrt_of_one():
    p = e2_presentation()
    zero = element(p, 5, {})
    result = series_function_apply(zero, "sqrt1p")[0]
    assert (result - NCElement.one(p, 5)).is_zero


def test_series_function_rejects_nonzero_valuation():
    p = e2_presentation()
    with pytest.raises(ValueError, match="positive order"):
        series_function_apply(NCElement.generator(p, "P+", 4), "exp")[0]


def test_suite_e2_passes():
    report = suite_e2(8)
    assert report.passed, [e.relation_label for e in failures(report)]
    chi_eta = next(e for e in report.entries if e.relation_label == "[chi,eta] = 0")
    assert chi_eta.status == "pass"


def test_suite_e3_passes():
    report = suite_e3(8)
    assert report.passed, [e.relation_label for e in failures(report)]
    labels = {e.relation_label for e in report.entries}
    assert "[P+,P-] = 0" in labels
    assert "[J0,P-] = -2P- + (w/2)P0^2" in labels
    assert "round trip: P0 e^{wP+} = Pi0" in labels


def test_suite_qe3_passes():
    report = suite_qe3(6)
    assert report.passed, [e.relation_label for e in failures(report)]
    labels = {e.relation_label for e in report.entries}
    assert "[P0,P+] = 0" in labels
    assert any(label.startswith("C1 = P+ P-") for label in labels)


@pytest.mark.parametrize("order", [2, 4, 6])
def test_truncation_monotonicity(order):
    assert suite_e2(order).passed
    assert suite_e3(order).passed
    assert suite_qe3(order).passed


def test_deformed_generators_reduce_classically():
    # order-0 parts of the e3 inverse-map generators are the classical ones,
    # and that of e^{-w P+} is 1
    p = e3_presentation()
    pi_p, pi_0, pi_m = (NCElement.generator(p, g, 6) for g in ("Pi+", "Pi0", "Pi-"))
    p_plus, p_zero, p_minus, e_minus = _e3_deformed(pi_p, pi_0, pi_m)
    for deformed, classical in ((p_plus, pi_p), (p_zero, pi_0), (p_minus, pi_m),
                                (e_minus, NCElement.one(p, 6))):
        assert order_part(deformed, 0) == order_part(classical, 0)


@pytest.mark.parametrize("order", [2, 6, 20])
def test_e3_inverse_sum_is_the_exponential_of_minus_w_p_plus(order):
    """The inv1p sum that _e3_deformed returns as e^{-w P+} is the exp series
    of -w P+ exactly, since w P+ = ln(1 + w Pi+)."""
    p = e3_presentation()
    pi_p, pi_0, pi_m = (NCElement.generator(p, g, order) for g in ("Pi+", "Pi0", "Pi-"))
    p_plus, _p_zero, _p_minus, e_minus = _e3_deformed(pi_p, pi_0, pi_m)
    (exp,) = series_function_apply(p_plus.mul_t(1).scale(-1), "exp")
    assert (e_minus.order, e_minus.terms, e_minus.den) == (exp.order, exp.terms, exp.den)


@pytest.mark.parametrize("order", [2, 6, 20])
def test_qe3_exponentials_are_the_inverse_sum_and_its_square(monkeypatch, order):
    """suite_qe3 takes e^{(W/2) P0} as its inv1p sum a_inv = (1 + a_dev)^{-1}
    and e^{W P0} as a_inv^2; both are the exp series of those arguments
    exactly, and 1 + a_dev that of -(W/2) P0, since -(W/2) P0 = ln(1 + a_dev)."""
    calls = []
    honest = ncseries.series_function_apply

    def spy(x, *kinds):
        calls.append((x, kinds, honest(x, *kinds)))
        return calls[-1][2]

    monkeypatch.setattr(ncseries, "series_function_apply", spy)
    assert suite_qe3(order).passed
    ((a_dev, (ln, a_inv)),) = [(x, out) for x, kinds, out in calls if kinds == ("ln1p", "inv1p")]
    half = (-ln.div_t(1).scale(2)).mul_t(1).scale(F(1, 2))   # (W/2) P0
    one = NCElement.one(a_dev.presentation, a_dev.order)
    for value, argument in ((a_inv, half), (a_inv * a_inv, half.scale(2)),
                            (one + a_dev, half.scale(-1))):
        (exp,) = honest(argument, "exp")
        assert (value.order, value.terms, value.den) == (exp.order, exp.terms, exp.den)


def wrong_taylor(monkeypatch, kind, index=2):
    """Patch the Taylor coefficients that the series suites sum so that one
    coefficient of the named series is off by 1."""
    honest = ncseries.taylor

    def wrong(name, count):
        coeffs = honest(name, count)
        if name == kind:
            coeffs[index] += 1
        return coeffs

    monkeypatch.setattr(ncseries, "taylor", wrong)


@pytest.mark.parametrize("suite, kind", [
    *((suite_e2, kind) for kind in ("arctanh", "sqrt1p", "inv1p", "sinh", "cosh")),
    *((suite_e3, kind) for kind in ("ln1p", "inv1p", "exp")),
    *((suite_qe3, kind) for kind in ("sqrt1p", "ln1p", "inv1p", "exp")),
])
def test_a_wrong_series_coefficient_fails_the_suite(monkeypatch, suite, kind):
    """Every series that a suite sums is checked: one wrong coefficient of
    it fails the suite."""
    wrong_taylor(monkeypatch, kind)
    assert not suite(6).passed


def test_a_wrong_exp_coefficient_fails_the_e3_round_trips_and_casimirs(monkeypatch):
    """e^{w P+} is the one exp series of suite_e3; it feeds the forward map,
    so the three round trips and both Casimir comparisons fail on it."""
    wrong_taylor(monkeypatch, "exp")
    failed = {e.relation_label for e in failures(suite_e3(6))}
    assert failed >= {
        "round trip: (e^{wP+}-1)/w = Pi+",
        "round trip: P0 e^{wP+} = Pi0",
        "round trip: P- - (w/4)P0^2 e^{wP+} = Pi-",
        "C1: both closed forms agree",
        "C2: both closed forms agree",
    }


def test_a_wrong_exp_coefficient_fails_the_qe3_map_consistency_only(monkeypatch):
    """exp o ln over 1 + a_dev is the one exp series of suite_qe3: a wrong
    exp coefficient fails that check, and only that one."""
    wrong_taylor(monkeypatch, "exp")
    assert [e.relation_label for e in failures(suite_qe3(6))] == [
        "map consistency: e^{-(W/2)P0} reproduces its defining series"]


def test_report_locates_series_failures():
    report = suite_e2(4)
    # corrupt a residual by hand through the public checker
    p = e2_presentation()
    residual = NCElement.generator(p, "P+", 4).mul_t(2).div_t(1)
    report.check_series_zero("forced failure", residual, 3)
    entry = report.entries[-1]
    assert entry.status == "fail"
    assert "order 1" in entry.detail and "P+" in entry.detail


def test_momentum_spectrum_classification():
    scan = momentum_spectrum(F(1), [F(-2), F(-1), F(0), F(1)], F(1), F(1))
    classes = {row["input"]: row["class"] for row in scan["rows"]}
    assert classes == {-2.0: "complex", -1.0: "singular", 0.0: "regular", 1.0: "regular"}
    assert scan["singular_hit"]
    row_complex = next(r for r in scan["rows"] if r["class"] == "complex")
    assert row_complex["im_p_plus"] == math.pi
    row_zero = next(r for r in scan["rows"] if r["input"] == 0.0)
    assert row_zero["re_p_plus"] == 0.0
    assert row_zero["p_minus"] == 1.25
    assert row_zero["p_zero"] == 1.0


def test_momentum_spectrum_nearest_approach_diagnostic():
    scan = momentum_spectrum(F(1), [F(-3, 4), F(1, 4)], F(1), F(1))
    assert not scan["singular_hit"]
    assert scan["nearest_approach"] == {"input": -0.75, "one_plus_omega_pi_plus": 0.25}


def test_momentum_spectrum_rejects_zero_omega():
    with pytest.raises(InputError):
        momentum_spectrum(F(0), [F(1)], F(1), F(1))


#: pi to 60 digits, for the reference values of im_p_plus.
PI_60 = "3.14159265358979323846264338327950288419716939937510582097494"


def _decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / q.denominator


@pytest.mark.parametrize("omega", [F(1), F(3), F(-7, 10), F(1, 10**8)])
def test_spectrum_cells_are_correctly_rounded(omega):
    """re_p_plus = ln|u|/omega and im_p_plus = pi/omega for u = 1 + omega pi+,
    against a 700-digit reference rounded once, with omega pi+ = +-10^e and
    +-(3/7) 10^e for e from -300 to 300 (every e from -39 to -1 for 3/7), on
    both sides of the singular point, with u itself within 10^-300 of 0, and
    with |omega pi+| just above and below 2^-10, where the series and the
    decimal branches of ln_abs meet.  700 digits are more than |u| - 1 has
    leading zeros at any of these points."""
    targets = [sign * m * F(10) ** e for e in (*range(-300, 301, 25), *range(-39, 0))
               for sign in (1, -1) for m in (1, F(3, 7)) if sign * m * F(10) ** e != -1]
    targets += [-1 + sign * F(10) ** e for e in range(-300, 0, 50) for sign in (1, -1)]
    targets += [sign * F(m, 1024 * m + r) for m in range(1, 11)
                for r in (-1, 1) for sign in (1, -1)]
    scan = momentum_spectrum(omega, [t / omega for t in targets], F(1), F(1))
    with localcontext() as ctx:
        ctx.prec = 700
        for t, row in zip(targets, scan["rows"], strict=True):
            u = 1 + t
            assert row["re_p_plus"] == float(_decimal(abs(u)).ln() / _decimal(omega)), t
            assert row["im_p_plus"] == (0.0 if u > 0 else float(Decimal(PI_60) / _decimal(omega)))


@pytest.mark.parametrize("argv, row", [
    ("--omega 1e-20 --grid 1:1:1", "1.0,regular,1.0,0.0,1.0,1.0"),
    ("--omega 1e-200 --grid 1e-200:1e-200:1", "1e-200,regular,1e-200,0.0,1.0,1.0"),
])
def test_a_tiny_omega_pi_plus_keeps_every_digit(capsys, argv, row):
    """ln(1 + 10^-20) / 10^-20 is 1 to 20 digits: rounding |u| to a float
    first printed 0.0 here."""
    assert main(["spectrum", *argv.split()]) == 0
    assert capsys.readouterr().out.splitlines()[1] == row


def test_scan_rows_are_the_inverse_map_that_verify_e3_checks(monkeypatch):
    """P+, P0 and P- of _e3_deformed are power series in w over the commuting
    momenta.  At w = 11, a prime above the order, such a series agrees with
    an exact value through w^order when their difference is divisible by
    11^(order+1), the momenta being 11-adic units; a term they differ in at
    a lower power leaves a lower power of 11.  With its rounding taken out
    and ln replaced by its Taylor sum through the order, the scan's own row
    at that point is the exact value of each closed form."""
    order, prime = 8, 11
    p = e3_presentation()
    pi_p, pi_0, pi_m = (NCElement.generator(p, g, order + 4) for g in ("Pi+", "Pi0", "Pi-"))
    deformed = _e3_deformed(pi_p, pi_0, pi_m)[:3]
    point = (F(0), F(0), F(0), F(2, 3), F(5, 7), F(-3, 2))   # J+, J0, J-, Pi+, Pi0, Pi-

    monkeypatch.setattr(ncseries, "_rounded", lambda value: value)
    monkeypatch.setattr(ncseries, "ln_abs", lambda u: sum(
        F((-1) ** (k + 1), k) * (u - 1) ** k for k in range(1, order + 2)))
    scan = momentum_spectrum(F(prime), [point[3]], point[5], point[4])
    (row,) = scan["rows"]
    for cell, series in zip(("re_p_plus", "p_zero", "p_minus"), deformed):
        at = F(0)
        for (exponents, power), c in coefficients(series).items():
            assert not any(exponents[:3]), (cell, exponents)
            if power <= order:
                at += c * prime**power * math.prod(v**e for v, e in zip(point, exponents))
        difference = row[cell] - at
        assert difference.denominator % prime, cell
        assert difference.numerator % prime ** (order + 1) == 0, cell
