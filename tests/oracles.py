"""Independent oracles the tests check library output against.

Nothing here goes through the recursion machinery under test: the Verma
action is rebuilt by direct operator application of the defining relations,
the combinatorial counts by exhaustive enumeration, sums of Kronecker
products by assembling the full matrix, and spectra by the characteristic
polynomial.
"""

from fractions import Fraction
from itertools import product

from jordanrep.errors import DimensionMismatch
from jordanrep.exact import BiPoly, PolyMatrix, TensorSum

ZERO = BiPoly.zero()


def enumerate_odd_tuples(total, num_parts):
    """Brute force: all tuples of positive odd integers with the given sum."""
    odds = range(1, total + 1, 2)
    return [t for t in product(odds, repeat=num_parts) if sum(t) == total]


def brute_force_actions(max_level):
    """The X and H actions on w_0..w_max_level by direct application.

    Uses only: the highest-weight conditions, w_n = Y^n w_0, and the moves
    X.w_n = (H + Y X).w_{n-1} and H.w_n = (-Y cosh(hX) - cosh(hX) Y + Y H).w_{n-1}
    with cosh expanded as a terminating series (X strictly lowers levels).
    Returns (X_act, H_act): level -> {target_level: coefficient}.
    """
    lam = BiPoly.lam()
    one = BiPoly.one()
    x_act = {0: {}}
    h_act = {0: {0: lam}}

    def clean(vec):
        return {m: c for m, c in vec.items() if not c.is_zero}

    def add(*vecs):
        out = {}
        for vec in vecs:
            for m, c in vec.items():
                out[m] = out.get(m, ZERO) + c
        return clean(out)

    def neg(vec):
        return {m: -c for m, c in vec.items()}

    def shift_up(vec):  # the Y action
        return {m + 1: c for m, c in vec.items()}

    def apply_x(vec):
        out = {}
        for n, c in vec.items():
            for m, e in x_act[n].items():
                out[m] = out.get(m, ZERO) + e * c
        return clean(out)

    def cosh_hx(vec):
        acc = dict(vec)
        cur = dict(vec)
        k = 0
        while cur:
            k += 1
            cur = apply_x(apply_x(cur))
            cur = {
                m: c.mul_h(2).scale(Fraction(1, (2 * k - 1) * (2 * k)))
                for m, c in cur.items()
            }
            acc = add(acc, cur)
        return acc

    for n in range(1, max_level + 1):
        x_act[n] = add(h_act[n - 1], shift_up(apply_x({n - 1: one})))
        h_act[n] = add(
            shift_up(h_act[n - 1]),
            neg(shift_up(cosh_hx({n - 1: one}))),
            neg(cosh_hx({n: one})),
        )
    return x_act, h_act


def assemble(tensor_sum: TensorSum):
    """The full matrix sum_i A_i (x) B_i, built pair by pair with kron."""
    acc = None
    for a, b in tensor_sum.pairs:
        m = a.kron(b)
        acc = m if acc is None else acc + m
    if acc is None:
        raise ValueError("empty tensor sum")
    return acc


def charpoly(m: PolyMatrix) -> list[BiPoly]:
    """Characteristic polynomial coefficients [1, c1, ..., cn] of det(xI - m).

    Faddeev-LeVerrier: exact over any commutative ring containing the
    rationals, so the coefficients come out as BiPoly values.
    """
    if m.rows != m.cols:
        raise DimensionMismatch("characteristic polynomial needs a square matrix")
    n = m.rows
    coeffs = [BiPoly.one()]
    aux = PolyMatrix.identity(n)
    mat = m
    for k in range(1, n + 1):
        if k > 1:
            aux = m * aux + PolyMatrix.identity(n).scale(coeffs[k - 1])
            mat = m * aux
        c = mat.trace().scale(Fraction(-1, k))
        coeffs.append(c)
    return coeffs
