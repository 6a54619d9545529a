from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanrep.errors import DimensionMismatch, NotNilpotent
from jordanrep.exact import (
    H,
    ONE,
    ZERO,
    BiPoly,
    PolyMatrix,
    TensorSum,
    commutator,
    nilpotent_apply,
)
from oracles import assemble, charpoly, diagonal, term, trace

# classical raising matrix for the 8-dimensional module, superdiagonal
# (j-m)(j+m+1) with weights descending
J_PLUS_8 = PolyMatrix(
    [
        [0, 7, 0, 0, 0, 0, 0, 0],
        [0, 0, 12, 0, 0, 0, 0, 0],
        [0, 0, 0, 15, 0, 0, 0, 0],
        [0, 0, 0, 0, 16, 0, 0, 0],
        [0, 0, 0, 0, 0, 15, 0, 0],
        [0, 0, 0, 0, 0, 0, 12, 0],
        [0, 0, 0, 0, 0, 0, 0, 7],
        [0, 0, 0, 0, 0, 0, 0, 0],
    ]
)


def test_arctanh_map_on_two_dim_is_identity_map():
    j = PolyMatrix([[0, 1], [0, 0]])
    x = nilpotent_apply("arctanh", j.scale(Fraction(1, 2)), h_scale=1).divide_h(1).scale(2)
    assert x == j  # j^2 = 0 kills all higher terms


def test_arctanh_map_on_eight_dim_golden_entry():
    x = nilpotent_apply("arctanh", J_PLUS_8.scale(Fraction(1, 2)), h_scale=1)
    x = x.divide_h(1).scale(2)
    assert x[0, 3] == term(105, 0, 2)
    assert x[0, 5] == term(3780, 0, 4)


def test_sqrt_conjugation_golden_entry():
    j_minus = PolyMatrix(
        [[1 if i == k + 1 else 0 for k in range(8)] for i in range(8)]
    )
    root = nilpotent_apply(
        "sqrt1p", (J_PLUS_8 * J_PLUS_8).scale(Fraction(-1, 4)), h_scale=2
    )
    y = root * j_minus * root
    assert y[0, 1] == term(Fraction(-21, 2), 0, 2)


def test_not_nilpotent():
    with pytest.raises(NotNilpotent):
        nilpotent_apply("exp", PolyMatrix.identity(2), h_scale=1)
    with pytest.raises(NotNilpotent):
        nilpotent_apply("exp", PolyMatrix([[0, 1], [1, 0]]), h_scale=1)


def test_dimension_mismatch_is_an_error():
    a = PolyMatrix.identity(2)
    b = PolyMatrix.zeros(3, 3)
    with pytest.raises(DimensionMismatch):
        a + b
    with pytest.raises(DimensionMismatch):
        a * b


def test_trace_and_kron():
    a = diagonal([1, 2])
    b = diagonal([3, 4])
    assert trace(a) == BiPoly.const(3)
    k = a.kron(b)
    assert k.rows == 4 and k[0, 0] == BiPoly.const(3) and k[3, 3] == BiPoly.const(8)


def test_charpoly_known_matrix():
    m = diagonal([1, 2])
    assert charpoly(m) == [ONE, BiPoly.const(-3), BiPoly.const(2)]
    n = PolyMatrix([[0, 1], [0, 0]])
    assert charpoly(n) == [ONE, ZERO, ZERO]


def test_first_difference_locates_mismatch():
    a = PolyMatrix.identity(3)
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
    it = iter(vals)
    return PolyMatrix(
        [[next(it) if j > i else 0 for j in range(n)] for i in range(n)]
    )


@settings(max_examples=40, deadline=None)
@given(strict_upper)
def test_exp_of_nilpotent_inverts(m):
    e_plus = nilpotent_apply("exp", m, h_scale=1)
    e_minus = nilpotent_apply("exp", -m, h_scale=1)
    assert e_plus * e_minus == PolyMatrix.identity(m.rows)


@settings(max_examples=40, deadline=None)
@given(strict_upper)
def test_hyperbolic_split_of_exponential(m):
    s = nilpotent_apply("sinh", m, h_scale=1)
    c = nilpotent_apply("cosh", m, h_scale=1)
    assert c + s == nilpotent_apply("exp", m, h_scale=1)
    assert commutator(s, c).is_zero


def test_tensor_sum_first_difference_locates_mismatch():
    e01 = PolyMatrix([[0, 1], [0, 0]])
    zero = PolyMatrix.zeros(2, 2)
    regrouped = TensorSum([(e01, e01.scale(3)), (e01.scale(2), -e01)])
    assert regrouped.first_difference(TensorSum([(e01, e01)])) is None
    # e01 (x) e01 has its single nonzero entry at (0*2+0, 1*2+1)
    diff = TensorSum([(e01, e01)]).first_difference(TensorSum([(e01, zero)]))
    assert diff == (0, 3, ONE, ZERO)
    # mismatches in blocks (0,0) at (1,0) and (0,1) at (0,3): row-major order
    # reports the second, which lies in an earlier row
    left, right = PolyMatrix([[1, 0]]), PolyMatrix([[0, 1]])
    e10 = PolyMatrix([[0, 0], [1, 0]])
    lhs = TensorSum([(left, e01 + e10)])
    rhs = TensorSum([(left, e01), (right, e01)])
    diff = lhs.first_difference(rhs)
    assert diff == (0, 3, ZERO, ONE)


def test_tensor_sum_first_difference_rejects_bad_shapes():
    i2, i3 = PolyMatrix.identity(2), PolyMatrix.identity(3)
    with pytest.raises(DimensionMismatch):
        TensorSum([(i2, i2)]).first_difference(TensorSum([(i2, i3)]))
    with pytest.raises(DimensionMismatch):
        TensorSum([(i2, i2), (i3, i2)]).first_difference(TensorSum([(i2, i2)]))
    with pytest.raises(ValueError):
        TensorSum([]).first_difference(TensorSum([(i2, i2)]))


# sparse entries, some carrying powers of h, so that blocks and whole block
# rows are often zero
small_entries = st.sampled_from(
    [0, 0, 0, 1, -1, 2, H, term(Fraction(-1, 2), 0, 2)]
)


def _matrices(rows, cols):
    return st.lists(small_entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda vals: PolyMatrix([vals[i * cols:(i + 1) * cols] for i in range(rows)])
    )


@st.composite
def tensor_sum_pairs(draw):
    """Two sums over the same leg shapes: the second regroups the first
    (reversed, with one right leg split in two) and adds 0-2 stray pairs, so
    both equal and unequal sides come up."""
    n, m, r, s = (draw(st.integers(1, 3)) for _ in range(4))
    pairs = st.lists(st.tuples(_matrices(n, m), _matrices(r, s)), min_size=1, max_size=3)
    lhs = draw(pairs)
    (a, b), rest = lhs[0], lhs[1:]
    part = draw(_matrices(r, s))
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
