"""Deterministic LaTeX rendering of exact polynomials and matrices."""

from __future__ import annotations

from fractions import Fraction

from .exact import BiPoly, PolyMatrix


def fraction_latex(q: Fraction) -> str:
    """A nonnegative rational as an integer or a \\frac."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"\\frac{{{q.numerator}}}{{{q.denominator}}}"


def bipoly_latex(p: BiPoly) -> str:
    """Signed sum of rational * lambda^a * h^b terms, highest degrees first."""
    return p.write(fraction_latex, ("\\lambda", "h"), "{}^{{{}}}", " ")


def matrix_latex(m: PolyMatrix) -> str:
    if m.rows == 1:
        return bipoly_latex(m[0, 0])
    rows = [
        " & ".join(bipoly_latex(m[i, j]) for j in range(m.rows)) for i in range(m.rows)
    ]
    body = " \\\\\n".join(rows)
    return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"


def elements_latex(stored_items) -> str:
    """Aligned list of table elements, one per line."""
    lines = []
    for (kind, n, m), value in stored_items:
        lines.append(f"{kind}_{{{n}}}^{{{m}}} &= {bipoly_latex(value)} \\\\")
    return "\\begin{aligned}\n" + "\n".join(lines) + "\n\\end{aligned}"
