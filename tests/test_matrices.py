from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanrep.errors import DimensionMismatch
from jordanrep.exact import (
    ONE,
    ZERO,
    PolyMatrix,
    TensorSum,
    commutator,
    matrices,
)
from jordanrep.irrep import map_to_deformed
from oracles import (
    assemble,
    charpoly,
    classical_rep,
    diagonal,
    expand,
    graded,
    grid_add,
    grid_kron,
    grid_mul,
    grid_negate_h,
    grid_nilpotent_apply,
    ladder,
    negate_h,
    nilpotent_apply,
    term,
    trace,
)

# classical raising matrix for the 8-dimensional module, superdiagonal
# (j-m)(j+m+1) with weights descending
J_PLUS_8 = graded(
    [
        [0, 7, 0, 0, 0, 0, 0, 0],
        [0, 0, 12, 0, 0, 0, 0, 0],
        [0, 0, 0, 15, 0, 0, 0, 0],
        [0, 0, 0, 0, 16, 0, 0, 0],
        [0, 0, 0, 0, 0, 15, 0, 0],
        [0, 0, 0, 0, 0, 0, 12, 0],
        [0, 0, 0, 0, 0, 0, 0, 7],
        [0, 0, 0, 0, 0, 0, 0, 0],
    ],
    2,
)


def test_arctanh_map_on_two_dim_is_identity_map():
    c = classical_rep(Fraction(1, 2))
    assert c.plus == graded([[0, 1], [0, 0]], 2)
    assert map_to_deformed(c.j).X == c.plus  # j^2 = 0 kills all higher terms


def test_arctanh_map_on_eight_dim_golden_entry():
    c = classical_rep(Fraction(7, 2))
    assert c.plus == J_PLUS_8
    x = map_to_deformed(c.j).X
    assert x[0, 3] == term(105, 0, 2)
    assert x[0, 5] == term(3780, 0, 4)


def test_sqrt_conjugation_golden_entry():
    y = map_to_deformed(Fraction(7, 2)).Y
    assert y[0, 1] == term(Fraction(-21, 2), 0, 2)


def test_dimension_mismatch_is_an_error():
    a = PolyMatrix.identity(ladder(2))
    b = PolyMatrix.zeros(ladder(3), 0)
    with pytest.raises(DimensionMismatch):
        a + b
    with pytest.raises(DimensionMismatch):
        a * b
    with pytest.raises(DimensionMismatch):  # same values, one more power of h
        a.first_difference(a.mul_h())
    with pytest.raises(DimensionMismatch):
        PolyMatrix([[1, 0]], ladder(2), 0)


def test_off_grade_entries_are_refused():
    with pytest.raises(DimensionMismatch):  # J+ entry read as weight 0
        graded([[0, 1], [0, 0]], 0)
    with pytest.raises(DimensionMismatch):  # 1 + h has no single grade
        graded([[0, ONE + term(1, 0, 1)], [0, 0]], 2)
    with pytest.raises(DimensionMismatch):  # lam is not a power of h
        graded([[0, term(1, 1, 0)], [0, 0]], 2)
    assert graded([[0, term(3, 0, 1)], [0, 0]], 0)[0, 1] == term(3, 0, 1)


def test_divide_h_refuses_an_entry_without_h():
    j_plus = graded([[0, 2, 0], [0, 0, 2], [0, 0, 0]], 2)
    with pytest.raises(DimensionMismatch):
        j_plus.divide_h()
    assert j_plus.mul_h().divide_h() == j_plus
    assert j_plus.mul_h()[0, 1] == term(2, 0, 1)


def test_negate_h_flips_odd_powers_only():
    m = graded([[0, 1, term(5, 0, 1)], [0, 0, 2], [0, 0, 0]], 2).mul_h()
    assert expand(negate_h(m)) == [
        [ZERO, term(-1, 0, 1), term(5, 0, 2)],
        [ZERO, ZERO, term(-2, 0, 1)],
        [ZERO, ZERO, ZERO],
    ]


def test_trace_and_kron():
    a = diagonal([1, 2])
    b = diagonal([3, 4])
    assert trace(a) == term(3, 0, 0)
    k = a.kron(b)
    assert k.rows == 4 and k[0, 0] == term(3, 0, 0) and k[3, 3] == term(8, 0, 0)
    assert k.weights == (2, 0, 0, -2)


def test_charpoly_known_matrix():
    m = diagonal([1, 2])
    assert charpoly(m) == [ONE, term(-3, 0, 0), term(2, 0, 0)]
    n = graded([[0, 1], [0, 0]], 2)
    assert charpoly(n) == [ONE, ZERO, ZERO]


def test_first_difference_locates_mismatch():
    a = PolyMatrix.identity(ladder(3))
    b = diagonal([1, 5, 1])
    assert a.first_difference(b)[:2] == (1, 1)
    assert a.first_difference(a) is None


strict_upper = st.integers(2, 8).flatmap(
    lambda n: st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=3),
        min_size=n * (n - 1) // 2,
        max_size=n * (n - 1) // 2,
    ).map(lambda vals: _upper_from(n, vals))
)


def _upper_from(n, vals):
    """A weight-2 matrix on the n-dimensional irrep: entry (i, j), j > i,
    carries h^(j-i-1)."""
    it = iter(vals)
    return PolyMatrix([[next(it) if j > i else 0 for j in range(n)] for i in range(n)],
                      ladder(n), 2)


@settings(max_examples=40, deadline=None)
@given(strict_upper)
def test_exp_of_nilpotent_inverts(m):
    e_plus = nilpotent_apply("exp", m)
    e_minus = nilpotent_apply("exp", -m)
    assert e_plus * e_minus == PolyMatrix.identity(m.weights)


@settings(max_examples=40, deadline=None)
@given(strict_upper)
def test_hyperbolic_split_of_exponential(m):
    s = nilpotent_apply("sinh", m)
    c = nilpotent_apply("cosh", m)
    assert c + s == nilpotent_apply("exp", m)
    assert commutator(s, c).is_zero


def test_tensor_sum_first_difference_locates_mismatch():
    e01 = graded([[0, 1], [0, 0]], 2)
    zero = PolyMatrix.zeros(ladder(2), 2)
    regrouped = TensorSum([(e01, e01.scale(3)), (e01.scale(2), -e01)])
    assert regrouped.first_difference(TensorSum([(e01, e01)])) is None
    # e01 (x) e01 has its single nonzero entry at (0*2+0, 1*2+1)
    diff = TensorSum([(e01, e01)]).first_difference(TensorSum([(e01, zero)]))
    assert diff == (0, 3, ONE, ZERO)
    # on a basis of weight-0 vectors every 2x2 matrix has weight 0:
    # mismatches in blocks (0,0) at (1,0) and (0,1) at (0,3): row-major order
    # reports the second, which lies in an earlier row
    def flat(rows):
        return PolyMatrix(rows, (0, 0), 0)

    e00, f01, f10 = flat([[1, 0], [0, 0]]), flat([[0, 1], [0, 0]]), flat([[0, 0], [1, 0]])
    lhs = TensorSum([(e00, f01 + f10)])
    rhs = TensorSum([(e00, f01), (f01, f01)])
    diff = lhs.first_difference(rhs)
    assert diff == (0, 3, ZERO, ONE)


def test_tensor_sum_first_difference_rejects_bad_shapes():
    i2, i3 = PolyMatrix.identity(ladder(2)), PolyMatrix.identity(ladder(3))
    with pytest.raises(DimensionMismatch):
        TensorSum([(i2, i2)]).first_difference(TensorSum([(i2, i3)]))
    with pytest.raises(DimensionMismatch):
        TensorSum([(i2, i2), (i3, i2)]).first_difference(TensorSum([(i2, i2)]))
    with pytest.raises(DimensionMismatch):  # pairs of weights 0 and -2
        TensorSum([(i2, i2), (i2, i2.mul_h())]).first_difference(TensorSum([(i2, i2)]))
    with pytest.raises(ValueError):
        TensorSum([]).first_difference(TensorSum([(i2, i2)]))


# sparse values, so that blocks and whole block rows are often zero; 1/10
# and 1/5 have no exact binary form, so any float in the arithmetic shows
small_values = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(-1, 2), Fraction(1, 10),
                                Fraction(1, 5)])


@st.composite
def graded_matrices(draw, n: int, weight: int, values=small_values):
    """A random matrix of the given weight on the n-dimensional irrep: each
    entry whose power of h, j - i - weight/2, is a natural number gets a
    random value, every other entry is zero."""
    return PolyMatrix(
        [[draw(values) if j - i - weight // 2 >= 0 else 0 for j in range(n)]
         for i in range(n)],
        ladder(n),
        weight,
    )


# a factor per leg, so that the legs of one sum carry distinct denominators
leg_factors = st.sampled_from([1, -1, Fraction(1, 3), Fraction(-2, 7), Fraction(5, 6),
                               Fraction(3, 10), Fraction(9, 4)])


@st.composite
def scaled_legs(draw, n: int, weight: int):
    """A graded matrix times a drawn factor."""
    return draw(graded_matrices(n, weight)).scale(draw(leg_factors))


@st.composite
def tensor_sum_pairs(draw):
    """Two sums over the same leg bases and pair weight: the second regroups
    the first (reversed, with one right leg split in two) and adds 0-2 stray
    pairs, so both equal and unequal sides come up."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    total = draw(st.sampled_from([-2, 0, 2]))

    @st.composite
    def pair(draw):
        left = draw(st.sampled_from([-2, 0, 2]))
        return draw(scaled_legs(n, left)), draw(scaled_legs(r, total - left))

    pairs = st.lists(pair(), min_size=1, max_size=3)
    lhs = draw(pairs)
    (a, b), rest = lhs[0], lhs[1:]
    part = draw(scaled_legs(r, b.weight))
    rhs = list(reversed(rest)) + [(a, b - part), (a, part)]
    if draw(st.booleans()):
        rhs += draw(pairs)[:2]
    return TensorSum(lhs), TensorSum(rhs)


@settings(max_examples=150, deadline=None)
@given(tensor_sum_pairs())
def test_tensor_sum_first_difference_matches_assembled_oracle(sides):
    lhs, rhs = sides
    assert lhs.first_difference(rhs) == assemble(lhs).first_difference(assemble(rhs))
    assert rhs.first_difference(lhs) == assemble(rhs).first_difference(assemble(lhs))


@st.composite
def dependent_tensor_sums(draw):
    """Two sums whose left legs depend linearly on each other, so that only
    elimination on the left legs decides them: (a+c) (x) b against
    a (x) b + c (x) b, (2a) (x) (b/2) against a (x) b, and
    a (x) b + (a+c) (x) d + c (x) (-d), whose legs cancel only once a+c is
    reduced against a, against a (x) (b+d).  Pairs come in any order, and a
    stray pair on either side makes the sums unequal.  Every leg carries
    its own factor, so the pairs' denominators differ.  Weight-0 left legs
    may be the identity, so that a and c can both be the identity and a+c
    twice it."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    left, total = draw(st.sampled_from([-2, 0, 2])), draw(st.sampled_from([-2, 0, 2]))
    legs = scaled_legs(n, left)
    if left == 0:
        legs = st.one_of(legs, st.just(PolyMatrix.identity(ladder(n))))
    a, c = draw(legs), draw(legs)
    b, d = draw(scaled_legs(r, total - left)), draw(scaled_legs(r, total - left))
    lhs, rhs = draw(st.sampled_from([
        ([(a + c, b)], [(a, b), (c, b)]),
        ([(a.scale(2), b.scale(Fraction(1, 2)))], [(a, b)]),
        ([(a, b), (a + c, d), (c, -d)], [(a, b + d)]),
    ]))
    if draw(st.booleans()):
        stray = (draw(scaled_legs(n, left)), draw(scaled_legs(r, total - left)))
        (lhs if draw(st.booleans()) else rhs).append(stray)
    return TensorSum(draw(st.permutations(lhs))), TensorSum(draw(st.permutations(rhs)))


@settings(max_examples=150, deadline=None)
@given(dependent_tensor_sums())
def test_dependent_left_legs_match_assembled_oracle(sides):
    lhs, rhs = sides
    assert lhs.first_difference(rhs) == assemble(lhs).first_difference(assemble(rhs))
    assert rhs.first_difference(lhs) == assemble(rhs).first_difference(assemble(lhs))


def test_tensor_sum_mismatch_on_one_reduced_leg(monkeypatch):
    # a (x) b + (a+c) (x) d - a (x) (b+d) - c (x) (d+e) = -c (x) e: after
    # elimination the left leg a carries a zero right factor, so only c is
    # scanned, and equal sums leave nothing to scan
    scanned = []
    scan = matrices._first_nonzero
    monkeypatch.setattr(matrices, "_first_nonzero",
                        lambda pairs, n, r: scanned.append(len(pairs)) or scan(pairs, n, r))

    def flat(rows):
        return PolyMatrix(rows, (0, 0), 0)

    a, c = flat([[2, 0], [0, 0]]), flat([[0, Fraction(-1, 2)], [0, 0]])
    b, d, e = flat([[0, 1], [0, 0]]), flat([[0, 0], [1, 0]]), flat([[1, 0], [0, 0]])
    lhs = TensorSum([(a, b), (a + c, d)])
    rhs = TensorSum([(a, b + d), (c, d + e)])
    # c (x) e is nonzero only at (0*2+0, 1*2+0)
    assert lhs.first_difference(rhs) == (0, 2, ZERO, term(Fraction(-1, 2), 0, 0))
    assert lhs.first_difference(rhs) == assemble(lhs).first_difference(assemble(rhs))
    assert lhs.first_difference(TensorSum([(a, b + d), (c, d)])) is None
    assert scanned == [1, 1, 0]


def test_tensor_sum_decision_is_exact_on_identity_legs():
    # identity legs hold ints; 1/10 + 2/10 - 3/10 is zero over Q but not in
    # floating point, so the sums must agree exactly
    eye = PolyMatrix.identity(ladder(2))

    def flat(x):
        return PolyMatrix([[x, 0], [0, x]], (0, 0), 0)

    b1, b2 = flat(Fraction(1, 10)), flat(Fraction(2, 10))
    split = TensorSum([(eye, b1), (eye, b2)])
    # against 2 * identity the quotient is 2 one way round and 1/2 the other
    for whole in (TensorSum([(eye, b1 + b2)]),
                  TensorSum([(eye + eye, (b1 + b2).scale(Fraction(1, 2)))])):
        assert split.first_difference(whole) is None
        assert whole.first_difference(split) is None
        assert assemble(split).first_difference(assemble(whole)) is None
    off = TensorSum([(eye, flat(Fraction(3, 10) + Fraction(1, 10**20)))])
    assert split.first_difference(off) == (0, 0, term(Fraction(3, 10), 0, 0),
                                           term(Fraction(3, 10) + Fraction(1, 10**20), 0, 0))
    assert split.first_difference(off) == assemble(split).first_difference(assemble(off))
    assert off.first_difference(split) == assemble(off).first_difference(assemble(split))


@st.composite
def graded_operands(draw):
    """Two matrices on one spin-j space, a third of the first one's weight,
    and a nilpotent one of weight 2 or 4."""
    n = draw(st.integers(1, 5))
    weights = st.sampled_from([-4, -2, 0, 2, 4])
    wa, wb = draw(weights), draw(weights)
    a, b = draw(graded_matrices(n, wa)), draw(graded_matrices(n, wb))
    c = draw(graded_matrices(n, wa))
    nil = draw(graded_matrices(n, draw(st.sampled_from([2, 4]))))
    return a, b, c, nil


@settings(max_examples=100, deadline=None)
@given(graded_operands(), st.sampled_from(["exp", "sinh", "cosh", "arctanh", "sqrt1p"]))
def test_graded_arithmetic_matches_polynomial_grids(operands, kind):
    a, b, c, nil = operands
    assert expand(a * b) == grid_mul(expand(a), expand(b))
    assert expand(a + c) == grid_add(expand(a), expand(c))
    assert expand(a.kron(b)) == grid_kron(expand(a), expand(b))
    assert expand(negate_h(a)) == grid_negate_h(expand(a))
    assert expand(nilpotent_apply(kind, nil)) == grid_nilpotent_apply(
        kind, expand(nil), nil.weight // 2
    )


# entries with distinct denominators, so that sums and products meet
# unequal denominators and common factors that must be divided out
mixed_values = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 10), Fraction(-1, 2),
                                Fraction(3, 7), Fraction(5, 6), Fraction(-4, 9)])


def assert_canonical(m: PolyMatrix):
    """Int numerators over a positive denominator with no common factor;
    the zero matrix has denominator 1.  The cached nonzero columns are
    those of the numerators, whether copied from an operand, built by
    kron or filled on first use."""
    assert type(m.den) is int and m.den > 0
    assert all(type(x) is int for row in m.nums for x in row)
    assert gcd(m.den, *(x for row in m.nums for x in row)) == 1
    if m.is_zero:
        assert m.den == 1
    assert m.columns() == [[k for k, x in enumerate(row) if x] for row in m.nums]


@st.composite
def mixed_triples(draw):
    """Three matrices with mixed denominators on one spin-j space: a and c
    of one weight, b of another."""
    n = draw(st.integers(1, 5))
    weights = st.sampled_from([-2, 0, 2])
    wa, wb = draw(weights), draw(weights)
    return tuple(draw(graded_matrices(n, w, mixed_values)) for w in (wa, wb, wa))


@settings(max_examples=100, deadline=None)
@given(mixed_triples(), st.sampled_from([3, Fraction(-7, 6), Fraction(10, 3), 0]))
def test_results_are_canonical_and_exact(operands, q):
    a, b, c = operands
    for m in operands:  # fill the operands' caches before anything derives from them
        m.columns()
    one = PolyMatrix([[Fraction(-3, 4)]], (0,), 0)  # 1 x 1
    zero = a - a
    results = [a, b, a + c, a - c, zero, a.scale(0), -a, -zero, a * b, b * a, a * zero,
               a.kron(b), a.kron(zero), zero.kron(b), (-a).kron(b.scale(q)),
               a.kron(b).kron(c), one, one.kron(one), one.kron(a), a.kron(one), one * one,
               one.scale(0), a.scale(q), a.mul_h(), a.mul_h().divide_h(), (-a).mul_h(),
               (a * b).scale(q) + (a * b), a.kron(b) * c.kron(b)]
    results += [nilpotent_apply(kind, m) for m in (a, b) if m.weight > 0
                for kind in ("exp", "arctanh")]
    for m in results:
        assert_canonical(m)
    assert (a - a).den == 1 and a.scale(0).den == 1
    left, right = (a * b) * c.scale(q), a * (b * c.scale(q))
    assert left.nums == right.nums and left.den == right.den
    for x, y in ((a, c), (c, a)):
        s = x + y - y
        assert s.nums == x.nums and s.den == x.den
    assert expand(a + c) == grid_add(expand(a), expand(c))
    assert expand(a * b) == grid_mul(expand(a), expand(b))
