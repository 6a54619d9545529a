"""Independent oracles the tests check library output against, and small
helpers that only the tests need.

Nothing here goes through the recursion machinery under test: the Verma
action is rebuilt by direct operator application of the defining relations,
the h^2 and h^4 matrix elements come from closed forms, the element table
from the paper's recursion summed composition by composition and from the
paper's map on the classical Verma module M(lam), the classical
spin-j triple from its textbook matrices, the combinatorial
counts from exhaustive enumeration, normal forms from a reducer with a
free choice of swap, the letter sets of a packed monomial one letter at a
time, sums of Kronecker products by assembling the full
matrix, graded matrix arithmetic by the same operations on grids of
polynomials in h, functions of nilpotent matrices by their Taylor series
over matrix powers, and spectra by the characteristic polynomial.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import comb, lcm
from operator import or_

from jordanrep.exact import LAM, ONE, ZERO, BiPoly, PolyMatrix, TensorSum
from jordanrep.exact.series import power_sum, taylor
from jordanrep.irrep import spin_weights
from jordanrep.ncseries import FIELD_BITS, NCElement, _element


# -- small builders and queries ---------------------------------------------------


def term(coeff, deg_lam: int, deg_h: int) -> BiPoly:
    """coeff * lam^deg_lam * h^deg_h with an exact rational coeff."""
    return BiPoly({(deg_lam, deg_h): Fraction(coeff)})


def ladder(n: int) -> tuple[int, ...]:
    """The basis weights n-1, n-3, ..., 1-n of the n-dimensional irrep."""
    return tuple(range(n - 1, -n, -2))


def graded(rows, weight: int) -> PolyMatrix:
    """A matrix of the given weight on the n-dimensional irrep from a grid
    of rationals and polynomials in h, each of which must sit on its grade."""
    polys = [[p if isinstance(p, BiPoly) else term(p, 0, 0) for p in row] for row in rows]
    return PolyMatrix.from_polys(polys, ladder(len(rows)), weight)


def diagonal(values) -> PolyMatrix:
    n = len(values)
    return graded([[values[i] if i == j else 0 for j in range(n)] for i in range(n)], 0)


def with_h(value, degree: int) -> BiPoly:
    """value * h^degree, for a rational value or a polynomial."""
    return term(1, 0, degree) * value


def subs_lam(p: BiPoly, value) -> BiPoly:
    """Evaluate the weight symbol at an exact rational value, term by term."""
    value = Fraction(value)
    out = ZERO
    for (dl, dh), c in p.items():
        out = out + term(c * value**dl, 0, dh)
    return out


def constant_value(p: BiPoly) -> Fraction:
    """The value of a degree-zero polynomial; error if any symbol survives."""
    if any(key != (0, 0) for key, _ in p.items()):
        raise ValueError(f"{p} is not a constant")
    return sum((c for _, c in p.items()), Fraction(0))


def trace(m: PolyMatrix) -> BiPoly:
    acc = ZERO
    for i in range(m.rows):
        acc = acc + m[i, i]
    return acc


def subs_h(m: PolyMatrix, value) -> list:
    """Every entry evaluated at h = value, as a grid of rationals."""
    value = Fraction(value)
    return [
        [sum((c * value**dh for (_, dh), c in m[i, j].items()), Fraction(0))
         for j in range(m.rows)]
        for i in range(m.rows)
    ]


def negate_h(m: PolyMatrix) -> PolyMatrix:
    """Substitute h -> -h: entries with an odd power of h change sign."""
    wt, w = m.weights, m.weight
    return PolyMatrix([[-a if (wt[r] - wt[c] - w) // 2 % 2 else a for c, a in enumerate(row)]
                       for r, row in enumerate(subs_h(m, 1))], wt, w)


def is_homogeneous_h(p: BiPoly, degree: int) -> bool:
    """True when every term has h-degree exactly ``degree`` (zero counts)."""
    return all(dh == degree for (_, dh), _ in p.items())


def pack(p, mono, power: int) -> int:
    """The key of an exponent tuple at a power of the deformation
    parameter; ValueError unless every exponent is below the guard bit."""
    if len(mono) != p.size:
        raise ValueError("monomial references a foreign generator set")
    if power < 0 or not all(0 <= e < 1 << (FIELD_BITS - 1) for e in mono):
        raise ValueError(f"exponents {tuple(mono)} at power {power} do not fit a key")
    return sum(e << s for e, s in zip(mono, p.offsets)) + (power << p.shift)


def element(p, order: int, terms: dict) -> NCElement:
    """The element sum c t^k mono of {(exponent tuple, power k): rational c},
    zeros and powers above ``order`` dropped: int numerators over the lcm of
    the reduced denominators, which no prime divides together with every
    numerator, so the form is already canonical."""
    values = {pack(p, mono, k): Fraction(c) for (mono, k), c in terms.items()
              if c != 0 and k <= order}
    den = lcm(*(c.denominator for c in values.values()))
    return _element(p, order, {key: c.numerator * (den // c.denominator)
                               for key, c in values.items()}, den)


def bracket(p, a: int, b: int) -> dict:
    """[g_a, g_b] as {generator index: int} for any index order, read off
    the packed rules of the presentation."""
    if a < b:
        return {c: -k for c, k in bracket(p, b, a).items()}
    return {p.units.index(u): k for u, k in p.rules.get((p.units[a], p.units[b]), {}).items()}


def unpack(p, key: int) -> tuple:
    """(exponent tuple, power) of a packed key, read through the field
    offsets and the power shift of the presentation."""
    return tuple(key >> s & (1 << FIELD_BITS) - 1 for s in p.offsets), key >> p.shift


def letter_sets(p, key: int) -> tuple[int, int]:
    """(letters the monomial of a packed key holds, letters that its letters
    do not commute with from the right), as bit sets over generator indices,
    read one field and one bracket at a time."""
    held = [i for i, e in enumerate(unpack(p, key)[0]) if e]
    blocked = [sum(1 << b for b in range(a) if bracket(p, a, b)) for a in range(p.size)]
    return sum(1 << i for i in held), reduce(or_, (blocked[i] for i in held), 0)


def coefficients(el: NCElement) -> dict:
    """(monomial, power) -> rational coefficient: each int numerator over
    the element's one denominator."""
    return {unpack(el.presentation, key): Fraction(n, el.den) for key, n in el.terms.items()}


def order_part(el: NCElement, k: int) -> dict:
    """Monomial -> rational coefficient at a single series order."""
    return {m: c for (m, j), c in coefficients(el).items() if j == k}


def failures(report) -> list:
    """The failed entries of a verification report, in the order checked."""
    return [e for e in report.entries if e.status == "fail"]


# -- the classical triple -----------------------------------------------------------


class ClassicalRep(namedtuple("ClassicalRep", "j plus minus zero")):
    """Spin-j matrices of the undeformed triple, weights descending."""


def classical_rep(j) -> ClassicalRep:
    """Spin-j matrices in the basis w_j, w_{j-1}, ..., w_{-j}: the classical
    triple that the nonlinear map deforms."""
    weights = spin_weights(j)
    dim = len(weights)
    plus = [[0] * dim for _ in range(dim)]
    minus = [[0] * dim for _ in range(dim)]
    zero = [[0] * dim for _ in range(dim)]
    two_j = int(2 * j)
    for i in range(dim):
        zero[i][i] = two_j - 2 * i
        if i >= 1:
            # raising from column i (m = j - i) up to row i-1
            plus[i - 1][i] = i * (two_j - i + 1)
        if i + 1 < dim:
            minus[i + 1][i] = 1
    return ClassicalRep(
        j=j,
        plus=PolyMatrix(plus, weights, 2),
        minus=PolyMatrix(minus, weights, -2),
        zero=PolyMatrix(zero, weights, 0),
    )


# -- closed forms for the h^2 and h^4 elements --------------------------------
#
# rho2/sigma2 give H_{n+2}^n = h^2 rho2(n) and X_{n+3}^n = h^2 sigma2(n);
# rho4/sigma4 the analogous h^4 elements.  The binomial-style factor in rho4
# pairing (lam - k) against (lam - k - 4) is read as the degree-4 falling
# factorial divided by 4!.


@lru_cache(maxsize=None)
def _rho2(n: int) -> BiPoly:
    acc = ZERO
    for k in range(n):
        acc = acc - (k + 1) * (k + 2) * (LAM - k) * (LAM - k - 1)
    tail = Fraction((n + 1) * (n + 2), 2) * (LAM - n) * (LAM - n - 1)
    return acc - tail


@lru_cache(maxsize=None)
def _sigma2(n: int) -> BiPoly:
    acc = ZERO
    for k in range(n + 1):
        acc = acc + _rho2(k)
    return acc


def _falling4(shift: int) -> BiPoly:
    # (lam - shift)(lam - shift - 1)(lam - shift - 2)(lam - shift - 3)
    acc = ONE
    for i in range(4):
        acc = acc * (LAM - shift - i)
    return acc


def _rho4_term(k: int) -> BiPoly:
    return (
        (k + 4) * (LAM - k - 3) * _sigma2(k)
        + (k + 1) * (LAM - k) * _sigma2(k + 1)
        + _falling4(k) * (2 * comb(k + 4, 4))
    )


@lru_cache(maxsize=None)
def _rho4(n: int) -> BiPoly:
    acc = ZERO
    for k in range(n):
        acc = acc - _rho4_term(k)
    return acc - _rho4_term(n) * Fraction(1, 2)


@lru_cache(maxsize=None)
def _sigma4(n: int) -> BiPoly:
    acc = ZERO
    for k in range(n + 1):
        acc = acc + _rho4(k)
    return acc


_CLOSED_FORMS = {"rho2": _rho2, "sigma2": _sigma2, "rho4": _rho4, "sigma4": _sigma4}


def closed_form_oracle(kind: str, n: int) -> BiPoly:
    """Closed-form value of rho2/sigma2/rho4/sigma4 at index n, as a
    polynomial in the weight symbol: the coefficient of h^2 or h^4."""
    if kind not in _CLOSED_FORMS:
        raise ValueError(f"unknown closed form {kind!r}")
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _CLOSED_FORMS[kind](n)


# -- the element table by the paper's recursion, composition by composition ------


def odd_compositions(total: int, num_parts: int) -> list[tuple[int, ...]]:
    """All ordered tuples of ``num_parts`` positive odd integers summing to
    ``total``, in lexicographic order.  Order matters: (7,1) and (1,7) are
    distinct compositions."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int, parts_left: int):
        if parts_left == 1:
            if remaining >= 1 and remaining % 2 == 1:
                out.append(prefix + (remaining,))
            return
        # each later part is odd >= 1, so at most remaining - (parts_left - 1)
        for part in range(1, remaining - (parts_left - 1) + 1, 2):
            extend(prefix + (part,), remaining - part, parts_left - 1)

    extend((), total, num_parts)
    return out


def z_product(m: int, two_n: int, comp: tuple[int, ...], table):
    """Ordered product of X elements descending from level m+2n to m by the
    steps of the composition; zero as soon as one factor is."""
    level = m + two_n
    acc = table.one
    for step in comp:
        nxt = level - step
        factor = table.X(level, nxt)
        if factor == 0:
            return table.zero
        acc = acc * factor
        level = nxt
    return acc


def literal_composition_sums(l: int, two_n: int, table) -> list:
    """Z_l summed over the compositions of 2n into 2k odd parts, one sum for
    each k = 1..n, listing every composition and multiplying it out alone."""
    out = []
    for k in range(1, two_n // 2 + 1):
        acc = table.zero
        for comp in odd_compositions(two_n, 2 * k):
            acc = acc + z_product(l, two_n, comp, table)
        out.append(acc)
    return out


# -- the element table by the map on the classical Verma module -----------------


class MapTable(namedtuple("MapTable", "H X top")):
    """X_n^m and H_n^m keyed (n, m) as :class:`jordanrep.verma.ElementTable`
    stores them, and the top classical vector v_L in the w basis."""


def verma_map_table(max_level: int, lam) -> MapTable:
    """The element table up to level L = ``max_level`` from the paper's map,
    with no recursion: the deformed Verma module is the classical M(lam),
    on which J+ v_n = n(lam - n + 1) v_{n-1}, J- v_n = v_{n+1} and
    J0 v_n = (lam - 2n) v_n, with X = (2/h) arctanh(h J+ / 2), Y = R J- R,
    H = J0 and R = sqrt(1 - h^2 J+^2 / 4).  Every element is homogeneous in
    h, so h = 1 leaves the h-coefficient that the table keeps.  The basis
    w_n = Y^n v_0 is v_n plus lower levels, so the w-coordinates of X w_n
    and H w_n follow by back-substitution, with no division.  At lam = L - 1
    the classical v_L is singular, and ``top`` is the singular vector."""
    zero = lam - lam
    one = zero + 1
    size = max_level + 1

    def raise_(u):
        return [(n + 1) * (lam - n) * u[n + 1] for n in range(size - 1)] + [zero]

    def series(coeffs, u):
        acc = [coeffs[0] * a for a in u]
        for c in coeffs[1:]:
            u = raise_(u)
            acc = [a + c * b for a, b in zip(acc, u)]
        return acc

    x_coeffs = [2 * a / 2**k for k, a in enumerate(taylor("arctanh", size))]
    sqrt1p = taylor("sqrt1p", (size + 1) // 2)
    root = [0 if k % 2 else sqrt1p[k // 2] * Fraction(-1, 4) ** (k // 2) for k in range(size)]
    w = [[one] + [zero] * max_level]
    for _ in range(max_level):
        w.append(series(root, [zero] + series(root, w[-1])[:-1]))

    def in_w(u):
        coords = [zero] * size
        for m in reversed(range(size)):
            if u[m] != 0:
                coords[m] = c = u[m]
                u = [a - c * b for a, b in zip(u, w[m])]
        return coords

    h_table, x_table = {}, {}
    for n, wn in enumerate(w):
        h_coords = in_w([(lam - 2 * k) * a for k, a in enumerate(wn)])
        x_coords = in_w(series(x_coeffs, wn))
        h_table.update({(n, m): h_coords[m] for m in range(n % 2, n + 1, 2)})
        x_table.update({(n, m): x_coords[m] for m in range(1 - n % 2, n, 2)})
    return MapTable(h_table, x_table, in_w([zero] * max_level + [one]))


# -- actions on Verma vectors ---------------------------------------------------


def act(table, generator: str, vector: dict) -> dict:
    """Apply the table-defined X or H action to sum_n v_n w_n.

    Each table element is an h-coefficient in the table's ring, so its power
    of h, h^{n-m-1} for X and h^{n-m} for H, is put back here.  Y needs no
    table: it shifts levels up by one."""
    out: dict = {}
    for n, coeff in vector.items():
        if coeff == 0:
            continue
        if generator == "Y":
            out[n + 1] = out.get(n + 1, ZERO) + coeff
            continue
        start = n - 1 if generator == "X" else n
        for m in range(start, -1, -2):
            elem = table.X(n, m) if generator == "X" else table.H(n, m)
            if elem != 0:
                degree = n - m - 1 if generator == "X" else n - m
                out[m] = out.get(m, ZERO) + with_h(elem, degree) * coeff
    return {m: c for m, c in out.items() if c != 0}


# -- normal ordering ---------------------------------------------------------------


def normal_order_scheduled(word, p, pick) -> dict:
    """Normal form of a generator word, swapping at each step the adjacent
    inversion that ``pick`` chooses from the list of their positions."""
    result: dict = {}
    stack = [(tuple(word), Fraction(1))]
    while stack:
        w, coeff = stack.pop()
        positions = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
        if not positions:
            mono = tuple(w.count(idx) for idx in range(p.size))
            acc = result.get(mono, Fraction(0)) + coeff
            if acc == 0:
                result.pop(mono, None)
            else:
                result[mono] = acc
            continue
        i = pick(positions)
        stack.append((w[:i] + (w[i + 1], w[i]) + w[i + 2:], coeff))
        for c, k in bracket(p, w[i], w[i + 1]).items():
            stack.append((w[:i] + (c,) + w[i + 2:], coeff * k))
    return result


def normal_order(word, p, order: int) -> NCElement:
    """Normal-order a generator word (indices or names) into an element."""
    idx_word = tuple(w if isinstance(w, int) else p.names.index(w) for w in word)
    form = normal_order_scheduled(idx_word, p, lambda pos: pos[0])
    return element(p, order, {(mono, 0): c for mono, c in form.items()})


def word_of(mono) -> tuple:
    """The sorted generator word of an exponent vector."""
    return tuple(idx for idx, e in enumerate(mono) for _ in range(e))


def product_by_monomial(x: NCElement, y: NCElement) -> NCElement:
    """x * y one monomial pair at a time: the pair's truncated product
    series in the deformation parameter times the scheduled normal form of
    the concatenated word."""
    p, order = x.presentation, min(x.order, y.order)

    def series(el):
        out: dict = {}
        for (m, k), c in coefficients(el).items():
            out.setdefault(m, {})[k] = c
        return out

    terms: dict = {}
    for ma, sa in series(x).items():
        for mb, sb in series(y).items():
            pair: dict = {}
            for i, a in sa.items():
                for j, b in sb.items():
                    if i + j <= order:
                        pair[i + j] = pair.get(i + j, 0) + a * b
            form = normal_order_scheduled(word_of(ma) + word_of(mb), p, lambda pos: pos[0])
            for mono, c in form.items():
                for k, v in pair.items():
                    terms[(mono, k)] = terms.get((mono, k), 0) + c * v
    return element(p, order, terms)


# -- brute force ---------------------------------------------------------------------


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
    x_act = {0: {}}
    h_act = {0: {0: LAM}}

    def clean(vec):
        return {m: c for m, c in vec.items() if c != 0}

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
                m: with_h(c, 2) * Fraction(1, (2 * k - 1) * (2 * k))
                for m, c in cur.items()
            }
            acc = add(acc, cur)
        return acc

    for n in range(1, max_level + 1):
        x_act[n] = add(h_act[n - 1], shift_up(apply_x({n - 1: ONE})))
        h_act[n] = add(
            shift_up(h_act[n - 1]),
            neg(shift_up(cosh_hx({n - 1: ONE}))),
            neg(cosh_hx({n: ONE})),
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


# -- grids of polynomials in h -----------------------------------------------------
#
# The graded PolyMatrix keeps values at h = 1 and one weight; these grids keep
# every entry as a full polynomial, entry by entry, with no grading at all.


def expand(m: PolyMatrix) -> list:
    """The matrix as a grid of polynomials c * h^d."""
    return [[m[i, j] for j in range(m.rows)] for i in range(m.rows)]


def grid_identity(n: int) -> list:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def grid_add(a, b) -> list:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def grid_scale(a, p: BiPoly) -> list:
    return [[x * p for x in row] for row in a]


def grid_mul(a, b) -> list:
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def grid_kron(a, b) -> list:
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def grid_negate_h(a) -> list:
    return [[BiPoly({k: -c if k[1] % 2 else c for k, c in p.items()}) for p in row] for row in a]


def grid_nilpotent_apply(kind: str, a, h_power: int) -> list:
    """sum_k f_k (h^h_power a)^k, stopping at the first zero power."""
    n = len(a)
    coeffs = taylor(kind, n + 1)
    step = grid_scale(a, BiPoly({(0, h_power): 1}))
    acc = grid_scale(grid_identity(n), term(coeffs[0], 0, 0))
    power = grid_identity(n)
    for coeff in coeffs[1:]:  # a nilpotent n x n grid has a zero n-th power
        power = grid_mul(power, step)
        if all(p == 0 for row in power for p in row):
            return acc
        acc = grid_add(acc, grid_scale(power, term(coeff, 0, 0)))
    raise AssertionError("grid power is nonzero")


# -- the Taylor route --------------------------------------------------------------


def nilpotent_apply(kind: str, m: PolyMatrix) -> PolyMatrix:
    """f(h^{w/2} m) for a nilpotent matrix m of even weight w >= 0, the named
    function f of ``taylor`` summed over the powers of h^{w/2} m, so the
    usual exp(hX) is ``nilpotent_apply("exp", X)``.  The reference for the
    band sums of ``map_to_deformed`` (its Cayley bands e^{±hX} included) and
    for every exponential, cosh and sinh."""
    assert m.weight >= 0 and m.weight % 2 == 0, f"weight {m.weight}"
    for _ in range(m.weight // 2):
        m = m.mul_h()
    total = power_sum([taylor(kind, m.rows + 1)], m, PolyMatrix.identity(m.weights))
    assert total is not None, f"power {m.rows} of the matrix is nonzero"
    return total[0]


def charpoly(m: PolyMatrix) -> list[BiPoly]:
    """Characteristic polynomial coefficients [1, c1, ..., cn] of det(xI - m).

    Faddeev-LeVerrier on the grid of polynomials: exact over any commutative
    ring containing the rationals, so the coefficients come out as BiPoly
    values.
    """
    n = m.rows
    a = expand(m)
    coeffs = [ONE]
    aux = grid_identity(n)
    mat = a
    for k in range(1, n + 1):
        if k > 1:
            aux = grid_add(grid_mul(a, aux), grid_scale(grid_identity(n), coeffs[k - 1]))
            mat = grid_mul(a, aux)
        c = sum((mat[i][i] for i in range(n)), ZERO) * Fraction(-1, k)
        coeffs.append(c)
    return coeffs
