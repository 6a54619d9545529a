"""Graded square matrices over the rationals.

With h of weight -2 and X, Y, H of weights +2, -2, 0 the deformed algebra is
homogeneous.  On a basis of weights wt_i (2j - 2i on a spin-j irrep, pairwise
sums on a tensor product), entry (r, c) of a matrix of weight w is a
multiple of h^d with d = (wt_r - wt_c - w) / 2.  So a :class:`PolyMatrix`
stores its values at h = 1, the basis weights and w, and two matrices of one
weight on one basis are equal exactly when their values at h = 1 are.  The
values are a grid of Python ints over one positive common denominator, in
canonical form (no factor common to the denominator and every numerator,
denominator 1 for the zero matrix), so all arithmetic is on ints and
equality stays structural; a ``Fraction`` is rebuilt per entry only for
output and failure reports.  Matrices are immutable, so each one fills, on
first use, a cache of the nonzero columns of every row, which products,
Kronecker products and the Kronecker-sum elimination walk in place of
scanning zeros.  The grade is checked where a matrix enters (the
constructor, :meth:`~PolyMatrix.from_polys` and :meth:`~PolyMatrix.divide_h`;
zeros and the identity are graded by construction), and graded operands
give graded results.
Mismatched bases or weights and off-grade entries raise DimensionMismatch.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ..errors import DimensionMismatch
from .poly import BiPoly, ZERO, as_fraction


def _degree(weights, weight: int, r: int, c: int) -> int:
    """The power of h in entry (r, c); an error unless it is a natural number."""
    twice = weights[r] - weights[c] - weight
    if twice < 0 or twice % 2:
        raise DimensionMismatch(f"entry ({r},{c}) of a weight {weight} matrix is off its grade")
    return twice // 2


def _check_grade(nums, weights, weight: int):
    """DimensionMismatch unless every nonzero entry sits on its grade."""
    for r, row in enumerate(nums):
        for c, v in enumerate(row):
            if v:
                _degree(weights, weight, r, c)


def _term(weights, weight: int, r: int, c: int, value) -> BiPoly:
    """value * h^d, the entry (r, c) rebuilt for output."""
    return BiPoly({(0, _degree(weights, weight, r, c)): value}) if value else ZERO


def _graded(nums, den: int, weights, weight: int, cols=None) -> "PolyMatrix":
    """A matrix already in canonical form whose grade follows from graded
    operands: no check.  ``cols``, when known, are its nonzero columns."""
    m = PolyMatrix.__new__(PolyMatrix)
    m.nums, m.den, m.weights, m.weight, m.rows = nums, den, weights, weight, len(weights)
    m._cols = cols
    return m


def _reduced(nums, den: int, weights, weight: int, cols=None) -> "PolyMatrix":
    """nums / den (den > 0) brought to canonical form by their common factor;
    dividing by it moves no zero, so known ``cols`` still hold."""
    g = den
    for row in nums:
        if g == 1:
            break
        g = gcd(g, *row)
    if g != 1:
        nums, den = [[a // g for a in row] for row in nums], den // g
    return _graded(nums, den, weights, weight, cols)


class PolyMatrix:
    """Immutable square matrix: values at h = 1 as int numerators ``nums``
    over one common denominator ``den``, basis weights, one weight."""

    __slots__ = ("nums", "den", "weights", "weight", "rows", "_cols")

    def __init__(self, values, weights, weight: int):
        """From a grid of ints and rationals, in one pass over their
        denominators: over their lcm the grid is already canonical."""
        weights = tuple(weights)
        values = [[v if type(v) is int else as_fraction(v) for v in row] for row in values]
        if len(values) != len(weights) or any(len(row) != len(weights) for row in values):
            raise DimensionMismatch(f"{len(weights)} basis weights need a square grid of that size")
        den = lcm(*(v.denominator for row in values for v in row))
        nums = [[v.numerator * (den // v.denominator) for v in row] for row in values]
        _check_grade(nums, weights, weight)
        self.nums, self.den, self.weights, self.weight, self.rows = (
            nums, den, weights, weight, len(weights))
        self._cols = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_polys(polys, weights, weight: int) -> "PolyMatrix":
        """From a grid of polynomials, each of which must be exactly c·h^d."""
        m = PolyMatrix([[sum(c for _, c in p.items()) for p in row] for row in polys],
                       weights, weight)
        for r, row in enumerate(polys):
            for c, p in enumerate(row):
                if m[r, c] != p:  # a term in lam, or in a power of h other than d
                    raise DimensionMismatch(f"entry ({r},{c}) of a weight {weight} "
                                            f"matrix is {p}, off its grade")
        return m

    @staticmethod
    def zeros(weights, weight: int) -> "PolyMatrix":
        """Graded at any weight."""
        return _graded([[0] * len(weights) for _ in weights], 1, tuple(weights), weight)

    @staticmethod
    def identity(weights) -> "PolyMatrix":
        """Graded at weight 0: its entries sit on the diagonal."""
        n = len(weights)
        return _graded([[int(i == j) for j in range(n)] for i in range(n)], 1,
                       tuple(weights), 0)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, key) -> BiPoly:
        i, j = key
        return _term(self.weights, self.weight, i, j, Fraction(self.nums[i][j], self.den))

    def columns(self) -> list:
        """Per row, the ascending columns of its nonzero numerators; filled
        once, as the matrix never changes."""
        cols = self._cols
        if cols is None:
            cols = self._cols = [[k for k, a in enumerate(row) if a] for row in self.nums]
        return cols

    def _require_same_grading(self, other: "PolyMatrix"):
        if self.weights != other.weights or self.weight != other.weight:
            raise DimensionMismatch(
                f"weight {self.weight} on {self.weights} vs weight {other.weight} on {other.weights}"
            )

    # -- arithmetic -------------------------------------------------------------

    def _merge(self, other: "PolyMatrix", sign: int) -> "PolyMatrix":
        """self + sign * other, with no negated copy of ``other``."""
        self._require_same_grading(other)
        da, db, pairs = self.den, other.den, zip(self.nums, other.nums)
        if da != db:
            g = gcd(da, db)
            fa, fb = db // g, sign * (da // g)  # lcm(da, db) = da fa = db |fb|
            nums = [[a * fa + b * fb for a, b in zip(ra, rb)] for ra, rb in pairs]
            da *= fa
        elif sign > 0:
            nums = [[a + b for a, b in zip(ra, rb)] for ra, rb in pairs]
        else:
            nums = [[a - b for a, b in zip(ra, rb)] for ra, rb in pairs]
        return _reduced(nums, da, self.weights, self.weight)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._merge(other, +1)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._merge(other, -1)

    def __neg__(self) -> "PolyMatrix":
        return _graded([[-a for a in row] for row in self.nums], self.den,
                       self.weights, self.weight, self._cols)

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.weights != other.weights:
            raise DimensionMismatch(f"{self.weights} times {other.weights}")
        # walk nonzero entries only on both sides: the representation
        # matrices are sparse
        b_nums, b_cols = other.nums, other.columns()
        n = self.rows
        out = []
        for row, cols in zip(self.nums, self.columns()):
            acc_row = [0] * n
            for k in cols:
                a, b_row = row[k], b_nums[k]
                for j in b_cols[k]:
                    acc_row[j] += a * b_row[j]
            out.append(acc_row)
        return _reduced(out, self.den * other.den, self.weights, self.weight + other.weight)

    def scale(self, q) -> "PolyMatrix":
        q = as_fraction(q)
        p = q.numerator
        return _reduced([[a * p for a in row] for row in self.nums], self.den * q.denominator,
                        self.weights, self.weight)

    # -- grading ------------------------------------------------------------------

    def mul_h(self) -> "PolyMatrix":
        """Times h: one more power of h in every entry, weight - 2."""
        return _graded(self.nums, self.den, self.weights, self.weight - 2, self._cols)

    def divide_h(self) -> "PolyMatrix":
        """Exact division by h, weight + 2; an entry without h is refused."""
        _check_grade(self.nums, self.weights, self.weight + 2)
        return _graded(self.nums, self.den, self.weights, self.weight + 2, self._cols)

    # -- structure ----------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(any(row) for row in self.nums)

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        """Tensor (Kronecker) product, row-major block convention.  Entry
        (p*m + i, q*m + k), B being m x m, is A[p,q] B[i,k]: nonzero exactly
        where both factors are, so the product's columns are known."""
        m, size = other.rows, self.rows * other.rows
        b_nums, b_cols = other.nums, other.columns()
        out, out_cols = [], []
        for ra, ca in zip(self.nums, self.columns()):
            for rb, cb in zip(b_nums, b_cols):
                row, row_cols = [0] * size, []
                for q in ca:
                    a, base = ra[q], q * m
                    for k in cb:
                        row[base + k] = a * rb[k]
                        row_cols.append(base + k)
                out.append(row)
                out_cols.append(row_cols)
        weights = tuple(a + b for a in self.weights for b in other.weights)
        return _reduced(out, self.den * other.den, weights, self.weight + other.weight, out_cols)

    def first_difference(self, other: "PolyMatrix"):
        """(row, col, self_entry, other_entry) of the first mismatch, or None."""
        self._require_same_grading(other)
        da, db = self.den, other.den
        for i, (ra, rb) in enumerate(zip(self.nums, other.nums)):
            if da == db and ra == rb:
                continue
            for j, (a, b) in enumerate(zip(ra, rb)):
                if a * db != b * da:
                    return (i, j, self[i, j], other[i, j])
        return None

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.weights == other.weights
            and self.weight == other.weight
            and self.den == other.den
            and self.nums == other.nums
        )

    # -- serialization --------------------------------------------------------------

    def to_obj(self) -> list:
        return [[self[i, j].to_obj() for j in range(self.rows)] for i in range(self.rows)]

    def __repr__(self):
        return "\n".join(
            "[" + ", ".join(str(self[i, j]) for j in range(self.rows)) + "]"
            for i in range(self.rows)
        )


def commutator(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return a * b - b * a


def anticommutator(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return a * b + b * a


def _axpy(acc: dict, c: int, items) -> dict:
    """acc += c * x for the (key, value) items of a sparse x; zeros are dropped."""
    for key, x in items:
        s = acc.get(key, 0) + c * x
        if s:
            acc[key] = s
        else:
            del acc[key]  # c * x is nonzero, so the key was there
    return acc


def _flat(m: PolyMatrix) -> dict:
    """The nonzero numerators of m keyed by row * m.rows + col."""
    n, nums = m.rows, m.nums
    return {i * n + k: nums[i][k] for i, cols in enumerate(m.columns()) for k in cols}


def _first_nonzero(pairs, n: int, r: int):
    """(row, col) of the first nonzero entry, in row-major order, of
    sum E (x) F over pairs of sparse int legs, E n x n and F r x r, each
    keyed by row * size + col; None for an empty list.  Entry
    (p*r + i, q*r + k) is sum E[p,q] F[i,k]."""
    rows = set()
    for e, f in pairs:
        f_rows = {key // r for key in f}
        rows.update(p * r + i for p in {key // n for key in e} for i in f_rows)
    for row in sorted(rows):
        p, i = divmod(row, r)
        acc: dict = {}
        for e, f in pairs:
            f_row = [(key - i * r, y) for key, y in f.items() if key // r == i]
            for key, x in e.items():
                if key // n == p:
                    _axpy(acc, x, [((key - p * n) * r + k, y) for k, y in f_row])
        if acc:
            return row, min(acc)
    return None


def _ratio(num: int, den: int) -> tuple[int, int]:
    """num / den in lowest terms with a positive denominator."""
    g = gcd(num, den)
    return (num // g, den // g) if den > 0 else (-num // g, -den // g)


class TensorSum:
    """A sum of Kronecker pairs, never assembled into one big matrix.

    Used for coproduct checks on tensor squares: products obey
    (A (x) B)(C (x) D) = AC (x) BD, so all arithmetic happens on the small
    factors, and :meth:`first_difference` decides an identity between two
    sums by exact elimination on their left legs.  Every pair must share the
    bases of its legs and the weight A.weight + B.weight of its product.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = list(pairs)

    def __add__(self, other: "TensorSum") -> "TensorSum":
        return TensorSum(self.pairs + other.pairs)

    def __mul__(self, other: "TensorSum") -> "TensorSum":
        return TensorSum(
            [(a * c, b * d) for (a, b) in self.pairs for (c, d) in other.pairs]
        )

    def __neg__(self) -> "TensorSum":
        return TensorSum([(-a, b) for (a, b) in self.pairs])

    def __sub__(self, other: "TensorSum") -> "TensorSum":
        return self + -other

    def _grading(self) -> tuple:
        """(left-leg basis weights, right-leg basis weights, weight of each pair)."""
        if not self.pairs:
            raise ValueError("empty tensor sum")
        gradings = {(a.weights, b.weights, a.weight + b.weight) for a, b in self.pairs}
        if len(gradings) != 1:
            raise DimensionMismatch(f"tensor pairs of several gradings: {sorted(gradings)}")
        return gradings.pop()

    def first_difference(self, other: "TensorSum"):
        """(row, col, self_entry, other_entry) of the first mismatch, or None.

        The same answer as comparing the two assembled Kronecker sums in
        row-major order (block (p,q) of sum_i A_i (x) B_i sits at rows p*r..
        and columns q*r.., where B_i is r x r), without assembling them.
        Every pair has one weight, so the values at h = 1 add up entry by
        entry.  The difference self - other, times the lcm of the pairs'
        denominators, is a sum of pairs of int legs, each sign and share of
        that lcm going into the right leg.  It is rewritten as
        sum_m E_m (x) F_m with linearly independent E_m (an operator-Schmidt
        reduction, by fraction-free Gaussian elimination on the flattened
        left legs): a left leg v with v[key] = c is reduced against the pivot
        p = E_m[key] as v <- p v - c E_m, its content divided out, and the
        rational share c/p of its right leg added to F_m; a nonzero
        remainder becomes a new E_m.  Each pending leg carries one int ratio
        and each F_m one int denominator.  The sums agree exactly when every
        F_m is zero; otherwise only the pairs with F_m != 0 are scanned, over
        one common denominator, for the first mismatch."""
        grading, other_grading = self._grading(), other._grading()
        if grading != other_grading:
            raise DimensionMismatch(f"tensor gradings {grading} vs {other_grading}")
        left, right, weight = grading
        n, r = len(left), len(right)
        signed = [(1, a, b) for a, b in self.pairs] + [(-1, a, b) for a, b in other.pairs]
        scale = lcm(*(a.den * b.den for _, a, b in signed))
        basis = []  # [pivot key, pivot, E_m, F_m, denominator of F_m], sparse int legs
        for sign, a, b in signed:
            # the pending term v (x) (num/den) B, with a and b's int numerators v and B
            v, b_items = _flat(a), _flat(b).items()
            num, den = sign * (scale // (a.den * b.den)), 1
            for item in basis:
                if not v:
                    break
                key, pivot, e, f, f_den = item
                c = v.get(key)
                if not c:
                    continue
                # v = (c/p) E_m + (p v - c E_m) / p
                share, share_den = _ratio(c * num, pivot * den)
                common = lcm(f_den, share_den)
                if common != f_den:
                    f_scale = common // f_den
                    for k in f:
                        f[k] *= f_scale
                    item[4] = common
                _axpy(f, share * (common // share_den), b_items)
                v = _axpy({k: pivot * x for k, x in v.items()}, -c, e.items())
                content = gcd(*v.values())
                if content > 1:
                    v = {k: x // content for k, x in v.items()}
                num, den = _ratio(num * content, den * pivot)
            if v:
                key = next(iter(v))
                basis.append([key, v[key], v, {k: num * y for k, y in b_items}, den])
        live = [(e, f, f_den) for _, _, e, f, f_den in basis if f]
        common = lcm(*(f_den for _, _, f_den in live))
        found = _first_nonzero([(e, {k: y * (common // f_den) for k, y in f.items()})
                                for e, f, f_den in live], n, r)
        if found is None:
            return None
        row, col = found
        (p, i), (q, k) = divmod(row, r), divmod(col, r)
        weights = tuple(a + b for a in left for b in right)
        lhs, rhs = (_term(weights, weight, row, col,
                          sum(Fraction(a.nums[p][q] * b.nums[i][k], a.den * b.den)
                              for a, b in pairs))
                    for pairs in (self.pairs, other.pairs))
        return row, col, lhs, rhs
