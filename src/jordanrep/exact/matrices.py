"""Dense matrices over the exact polynomial ring, and terminating series.

Rectangular grids of :class:`~jordanrep.exact.poly.BiPoly` with exact
arithmetic.  Dimension mismatches raise; nothing is silently truncated.
Analytic functions (exp, sinh, arctanh, sqrt, ...) are evaluated on nilpotent
matrices only, where the Taylor series terminates and the result is again an
exact polynomial matrix.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import DimensionMismatch, NotNilpotent
from .poly import BiPoly, ONE, ZERO, as_fraction
from .series import STREAMS


def _entry(value) -> BiPoly:
    if isinstance(value, BiPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return BiPoly.const(value) if value else ZERO
    raise TypeError(f"cannot use {value!r} as a matrix entry")


class PolyMatrix:
    """Immutable dense matrix with BiPoly entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows_of_entries):
        entries = tuple(
            tuple(_entry(v) for v in row) for row in rows_of_entries
        )
        if not entries or not entries[0]:
            raise ValueError("matrices must have positive dimensions")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise DimensionMismatch("ragged rows")
        self.rows = len(entries)
        self.cols = width
        self.entries = entries

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "PolyMatrix":
        return PolyMatrix([[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        return PolyMatrix(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    # -- access ---------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def _require_same_shape(self, other: "PolyMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._require_same_shape(other)
        return PolyMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._require_same_shape(other)
        return PolyMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix([[-a for a in row] for row in self.entries])

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} times {other.rows}x{other.cols}"
            )
        bt = other.entries
        out = []
        for row in self.entries:
            # skip zero left entries: the representation matrices are sparse
            nz = [(k, a) for k, a in enumerate(row) if a]
            acc_row = []
            for j in range(other.cols):
                acc = ZERO
                for k, a in nz:
                    b = bt[k][j]
                    if b:
                        acc = acc + a * b
                acc_row.append(acc)
            out.append(acc_row)
        return PolyMatrix(out)

    def scale(self, q) -> "PolyMatrix":
        if isinstance(q, BiPoly):
            return PolyMatrix([[a * q for a in row] for row in self.entries])
        q = as_fraction(q)
        return PolyMatrix([[a.scale(q) for a in row] for row in self.entries])

    # -- structure ----------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for row in self.entries for a in row)

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        """Tensor (Kronecker) product, row-major block convention."""
        out = []
        for ra in self.entries:
            for rb in other.entries:
                out.append([a * b for a in ra for b in rb])
        return PolyMatrix(out)

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix([[fn(a) for a in row] for row in self.entries])

    def negate_h(self) -> "PolyMatrix":
        return self.map_entries(lambda a: a.negate_h())

    def divide_h(self, k: int = 1) -> "PolyMatrix":
        return self.map_entries(lambda a: a.divide_h(k))

    def mul_h(self, k: int = 1) -> "PolyMatrix":
        return self.map_entries(lambda a: a.mul_h(k))

    def first_difference(self, other: "PolyMatrix"):
        """(row, col, self_entry, other_entry) of the first mismatch, or None."""
        self._require_same_shape(other)
        for i in range(self.rows):
            for j in range(self.cols):
                if self.entries[i][j] != other.entries[i][j]:
                    return (i, j, self.entries[i][j], other.entries[i][j])
        return None

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    # -- serialization --------------------------------------------------------------

    def to_obj(self) -> list:
        return [[a.to_obj() for a in row] for row in self.entries]

    @staticmethod
    def from_obj(obj) -> "PolyMatrix":
        return PolyMatrix([[BiPoly.from_obj(a) for a in row] for row in obj])

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(str(a) for a in row) + "]" for row in self.entries
        )

    __repr__ = __str__


def commutator(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return a * b - b * a


def anticommutator(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return a * b + b * a


def nilpotent_apply(kind: str, m: PolyMatrix, h_scale: int = 0) -> PolyMatrix:
    """Evaluate an analytic function on a nilpotent matrix as a finite sum.

    Returns ``sum_k f_k (h^h_scale m)^k`` where ``f_k`` are the exact Taylor
    coefficients of the named elementary function (see
    :data:`~jordanrep.exact.series.STREAMS`).  The sum terminates because a
    nilpotent d-by-d matrix satisfies ``m^d = 0``; if it does not,
    :class:`NotNilpotent` is raised.

    ``h_scale`` attaches a power of the deformation symbol per order, so the
    usual call for exp(h X) is ``nilpotent_apply("exp", X, h_scale=1)``.
    """
    if m.rows != m.cols:
        raise DimensionMismatch("series evaluation needs a square matrix")
    d = m.rows
    stream = STREAMS[kind]()
    acc = PolyMatrix.identity(d).scale(next(stream))
    power = PolyMatrix.identity(d)
    for k in range(1, d + 1):
        power = power * m
        if power.is_zero:
            return acc
        if k == d:
            raise NotNilpotent(f"matrix power {d} is nonzero")
        coeff = next(stream)
        if coeff:
            term = power.scale(coeff)
            if h_scale:
                term = term.map_entries(lambda a, _k=k: a.mul_h(h_scale * _k))
            acc = acc + term
    return acc


class TensorSum:
    """A sum of Kronecker pairs, never assembled into one big matrix.

    Used for coproduct checks on tensor squares: products obey
    (A (x) B)(C (x) D) = AC (x) BD, so all arithmetic happens on the small
    factors, and :meth:`first_difference` compares two sums one block row at
    a time.
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

    def _shape(self) -> tuple[int, int, int, int]:
        """(rows, cols) of every left leg followed by those of every right leg."""
        if not self.pairs:
            raise ValueError("empty tensor sum")
        shapes = {(a.rows, a.cols, b.rows, b.cols) for a, b in self.pairs}
        if len(shapes) != 1:
            raise DimensionMismatch(f"tensor legs of several shapes: {sorted(shapes)}")
        return shapes.pop()

    def _sparse_pairs(self) -> list:
        """Each pair as (rows of the left leg, (row, col, entry) for every
        nonzero entry of the right leg)."""
        return [
            (a.entries, [(i, k, e) for i, row in enumerate(b.entries)
                         for k, e in enumerate(row) if e])
            for a, b in self.pairs
        ]

    @staticmethod
    def _block_row(sparse_pairs, p: int, shape) -> list:
        """Block row p of the assembled sum: for each block column q, the
        block sum_i A_i[p,q] B_i as a list of entry rows."""
        _, m, r, s = shape
        blocks = [[[ZERO] * s for _ in range(r)] for _ in range(m)]
        for a_rows, b_nonzero in sparse_pairs:
            for q, coeff in enumerate(a_rows[p]):
                if coeff:  # zero left-leg scalars contribute nothing
                    block = blocks[q]
                    for i, k, e in b_nonzero:
                        block[i][k] = block[i][k] + coeff * e
        return blocks

    def first_difference(self, other: "TensorSum"):
        """(row, col, self_entry, other_entry) of the first mismatch, or None.

        The same answer as comparing the two assembled Kronecker sums in
        row-major order, but only one block row of each side exists at a time:
        block (p,q) of sum_i A_i (x) B_i sits at rows p*r.. and columns q*s..,
        where B_i is r x s."""
        shape, other_shape = self._shape(), other._shape()
        if shape != other_shape:
            raise DimensionMismatch(f"tensor legs {shape} vs {other_shape}")
        n, m, r, s = shape
        lhs_pairs, rhs_pairs = self._sparse_pairs(), other._sparse_pairs()
        for p in range(n):
            lhs = self._block_row(lhs_pairs, p, shape)
            rhs = self._block_row(rhs_pairs, p, shape)
            for row in range(r):
                for q in range(m):
                    l_row, r_row = lhs[q][row], rhs[q][row]
                    if l_row != r_row:
                        col = next(c for c in range(s) if l_row[c] != r_row[c])
                        return (p * r + row, q * s + col, l_row[col], r_row[col])
        return None
