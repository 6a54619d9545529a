"""Deterministic LaTeX rendering of exact polynomials and matrices."""

from __future__ import annotations

from fractions import Fraction

from .exact import BiPoly, PolyMatrix


def fraction_latex(q: Fraction) -> str:
    sign = "-" if q < 0 else ""
    q = abs(q)
    if q.denominator == 1:
        return f"{sign}{q.numerator}"
    return f"{sign}\\frac{{{q.numerator}}}{{{q.denominator}}}"


def _power(symbol: str, degree: int) -> str:
    if degree == 0:
        return ""
    if degree == 1:
        return symbol
    return f"{symbol}^{{{degree}}}"


def bipoly_latex(p: BiPoly) -> str:
    """Signed sum of rational * lambda^a * h^b terms, highest degrees first."""
    items = sorted(p.items(), key=lambda kv: kv[0], reverse=True)
    if not items:
        return "0"
    chunks = []
    for (dl, dh), coeff in items:
        symbols = " ".join(s for s in (_power("\\lambda", dl), _power("h", dh)) if s)
        if not symbols:
            body = fraction_latex(abs(coeff))
        elif abs(coeff) == 1:
            body = symbols
        else:
            body = f"{fraction_latex(abs(coeff))} {symbols}"
        chunks.append(("-" if coeff < 0 else "+", body))
    first_sign, first_body = chunks[0]
    text = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text


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
