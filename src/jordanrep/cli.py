"""Command-line interface: construction, export, verification, spectrum scan.

Subcommands
    elements  dump the recursion table of matrix elements
    irrep     construct a (2j+1)-dimensional irreducible representation
    singvec   singular-vector coefficients for an integer weight
    verify    run exact verification suites (sl2, hopf, so4, e2, e3, qe3, all)
    spectrum  float scan of the inverse-map singularity

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
or input error.  Every refused input gets one ``error:`` line: a zero or
non-finite spectrum parameter, an empty, unbounded or oversized --grid, a
scan that overflows floats, malformed --from-json input (including an entry
that is not c*h^d with the power d that its position and generator fix), an
unwritable --output, a truncation order below 2 or above MAX_ORDER, a
tensor dimension (2j1+1)(2j2+1) or a --from-json dimension 2j+1 above
MAX_TENSOR_DIM (checked as soon as "j" is read), --from-json with any
suite but sl2, a symbolic element
table above MAX_LEVEL, a spin (--j, --lambda as 2j, --j-max) above
MAX_SPIN, or a selection that runs no checks.  Past argparse, InputError,
an unwritable --output's OSError and ValueError (see main) exit 2; any
other exception is a defect and propagates.
All structured output carries a top-level {"schema": "jordan-rep/1"}.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from . import ncseries, so4
from .errors import DimensionMismatch, InputError
from .exact import BiPoly
from .irrep import (
    Irrep,
    casimir,
    ensure_half_integer,
    map_to_deformed,
    singular_vector,
    verify_hopf,
    verify_sl2_relations,
    verma_basis_irrep,
)
from .latexout import elements_latex, matrix_latex
from .report import VerificationReport
from .verma import build_table

SCHEMA = "jordan-rep/1"

#: Largest number of points a spectrum grid may have.
MAX_GRID_POINTS = 100_000

#: Largest truncation order of the series suites: `verify qe3` at this
#: order takes about 22 s and peaks at 111 MB on a 2-vCPU host (order 56:
#: 1.6 s, 36 MB); exponents reach order + 6, far below 2^15 (guard bit).
MAX_ORDER = 100

#: Largest tensor dimension (2j1+1)(2j2+1) of `verify so4` and `verify hopf`,
#: and largest dimension 2j+1 of a `verify sl2 --from-json` irrep.  The
#: slowest tensor shape is the most lopsided, whose one large irrep carries
#: the longest integers: `verify so4 --j1 0 --j2 107` takes 17-25 s and
#: peaks at 149 MB on a 2-vCPU host, all but 1 s of it in the relations
#: and the coalgebra ((0, 40) / (0, 80) / (0, 100): 0.8 / 8.5 / 22 s), and
#: `verify hopf --j1 0 --j2 107` 6-8 s.  Wider shapes are cheaper: (1, 35)
#: takes 6.1 s and (7, 6), of dimension 195, 2.4 s.  The slowest job under
#: the cap is the j = 107 irrep from JSON, 28-39 s and 68 MB: with no J+
#: to work from, it sums e^{±hX} over the matrix powers of hX.
MAX_TENSOR_DIM = 215

#: Largest --max-level of the symbolic `elements` table, built in about
#: half a minute on a 2-vCPU host (L = 19 / 21 / 23: 3.0 / 9.8 / 32 s, about
#: 3.3x per two levels).
MAX_LEVEL = 23

#: Largest spin of `irrep`, `singvec` (as --lambda = 2j) and `verify sl2
#: --j-max`.  A Verma irrep builds its element table over Q at lam = 2j to
#: level 2j + 1 (`irrep --j 11 / 12 / 13`, to L = 23 / 25 / 27: 0.9 / 2.6 /
#: 7.1 s on a 2-vCPU host, about 2.8x per two levels), and `verify sl2
#: --j-max 13`, which builds one for every spin, takes 18 s.  `elements
#: --lambda` builds the same tables, so its --max-level is capped at
#: 2 MAX_SPIN + 1 (27: 9.3 s at lam = 5/3).
MAX_SPIN = 13


def half_integer(text: str) -> Fraction:
    """Accept 'n' or 'odd/2'; anything else (decimals included) is rejected."""
    text = text.strip()
    try:
        if "/" in text:
            num_text, den_text = text.split("/", 1)
            num, den = int(num_text), int(den_text)
            if den != 2 or num % 2 == 0:
                raise ValueError
            value = Fraction(num, 2)
        else:
            value = Fraction(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer or an odd/2 half-integer"
        )
    if value < 0:
        raise argparse.ArgumentTypeError("j values must be nonnegative")
    return value


def rational(text: str) -> Fraction:
    """An exact rational such as '7' or '-7/3'; a zero denominator is refused."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{text!r} has a zero denominator")


def nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("value must be nonnegative")
    return value


def grid_spec(text: str) -> tuple[float, float, float]:
    """'a:b:step' as three floats; :func:`grid_points` checks the values."""
    try:
        start_s, stop_s, step_s = text.split(":")
        return float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not of the form a:b:step")


def grid_points(start: float, stop: float, step: float) -> list[float]:
    """The inclusive grid start, start + step, ... <= stop, counted before it
    is built so that no grid larger than MAX_GRID_POINTS is allocated."""
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise InputError("grid bounds and step must be finite")
    if step <= 0:
        raise InputError("grid step must be positive")
    last = (stop - start) / step + 1e-12  # index of the last point, unfloored
    if last < 0:
        raise InputError(f"grid {start}:{stop}:{step} is empty")
    if last >= MAX_GRID_POINTS:
        raise InputError(f"grid {start}:{stop}:{step} has more than {MAX_GRID_POINTS} points")
    return [start + k * step for k in range(int(last) + 1)]


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False on every parser: "--out" must not stand for
    # "--output", nor "--max-lev" for "--max-level"
    parser = argparse.ArgumentParser(
        prog="jordanrep", allow_abbrev=False,
        description="Exact representations of the Jordanian-deformed algebras, "
        "with identity verification in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_el = sub.add_parser("elements", allow_abbrev=False, help="dump the matrix-element table")
    p_el.add_argument("--max-level", type=nonneg_int, required=True, metavar="L")
    p_el.add_argument("--lambda", dest="lam", type=rational, default=None,
                      help="specialize the weight symbol at an exact rational")
    p_el.add_argument("--format", choices=("json", "latex"), default="json")
    p_el.add_argument("--output", default=None, help="write here instead of stdout")

    p_ir = sub.add_parser("irrep", allow_abbrev=False,
                          help="construct an irreducible representation")
    p_ir.add_argument("--j", type=half_integer, required=True,
                      help='half-integer spin, as "n" or "odd/2"')
    p_ir.add_argument("--basis", choices=("verma", "diagonal"), default="verma")
    p_ir.add_argument("--format", choices=("json", "latex"), default="json")
    p_ir.add_argument("--output", default=None)

    p_sv = sub.add_parser("singvec", allow_abbrev=False, help="singular-vector coefficients")
    p_sv.add_argument("--lambda", dest="lam", type=nonneg_int, required=True,
                      help="nonnegative integer weight (= 2j)")
    p_sv.add_argument("--output", default=None)

    p_v = sub.add_parser("verify", allow_abbrev=False, help="run exact verification suites")
    p_v.add_argument("suite", choices=("sl2", "hopf", "so4", "e2", "e3", "qe3", "all"))
    p_v.add_argument("--j-max", type=half_integer, default=Fraction(3),
                     help="largest spin for the sl2 suite")
    p_v.add_argument("--j1", type=half_integer, default=Fraction(1, 2))
    p_v.add_argument("--j2", type=half_integer, default=Fraction(1, 2))
    p_v.add_argument("--order", type=int, default=8,
                     help="truncation order for the series suites")
    p_v.add_argument("--from-json", default=None, metavar="FILE",
                     help="verify the sl2 relations of a representation read "
                          "from a JSON file instead of a built one")
    p_v.add_argument("--output", default=None)

    p_sp = sub.add_parser("spectrum", allow_abbrev=False, help="inverse-map singularity scan")
    p_sp.add_argument("--omega", type=float, required=True)
    p_sp.add_argument("--grid", type=grid_spec, required=True, metavar="a:b:step")
    p_sp.add_argument("--pi0", type=float, default=1.0)
    p_sp.add_argument("--pim", type=float, default=1.0)
    p_sp.add_argument("--out", choices=("csv", "json"), default="csv",
                      help="output format")
    p_sp.add_argument("--output", default=None, help="write here instead of stdout")
    return parser


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _json(payload: dict) -> str:
    payload = {"schema": SCHEMA, **payload}
    return json.dumps(payload, indent=2)


def _refuse_spin(flag: str, value, spin: Fraction):
    """An input error before any work when ``spin`` is above MAX_SPIN."""
    if spin > MAX_SPIN:
        raise InputError(f"{flag} {value} is above the largest spin {MAX_SPIN}")


def cmd_elements(args) -> int:
    kind, largest = ("symbolic", MAX_LEVEL) if args.lam is None else ("rational", 2 * MAX_SPIN + 1)
    if args.max_level > largest:
        raise InputError(f"--max-level {args.max_level} is above the largest {kind} level "
                         f"{largest}")
    if args.lam is None:
        table = build_table(args.max_level)
    else:
        table = build_table(args.max_level, args.lam)
    items = list(table.stored_items())
    if args.format == "latex":
        _emit(elements_latex(items), args.output)
        return 0
    payload = {
        "kind": "element-table",
        "max_level": args.max_level,
        "lambda": None if args.lam is None else str(args.lam),
        "elements": [
            {"generator": kind, "n": n, "m": m, "value": value.to_obj()}
            for (kind, n, m), value in items
        ],
    }
    _emit(_json(payload), args.output)
    return 0


def cmd_irrep(args) -> int:
    _refuse_spin("--j", args.j, args.j)
    if args.basis == "verma":
        rep = verma_basis_irrep(args.j)
    else:
        rep = map_to_deformed(args.j)
    if args.format == "latex":
        parts = [
            f"% j = {rep.j}, basis = {rep.basis}",
            "X = " + matrix_latex(rep.X),
            "Y = " + matrix_latex(rep.Y),
            "H = " + matrix_latex(rep.H),
        ]
        _emit("\n".join(parts), args.output)
        return 0
    _emit(_json(rep.to_obj()), args.output)
    return 0


def cmd_singvec(args) -> int:
    _refuse_spin("--lambda", args.lam, Fraction(args.lam, 2))
    top = args.lam + 1
    # C_0 = 1 at the top level, then C_p = c_p h^{2p} at level top - 2p
    polys = [BiPoly({(0, 2 * p): c}).to_obj()
             for p, c in enumerate((1, *singular_vector(Fraction(args.lam, 2))))]
    payload = {
        "kind": "singular-vector",
        "lambda": args.lam,
        "top_level": top,
        "coefficients": polys[1:],
        "levels": {str(top - 2 * p): polys[p] for p in reversed(range(len(polys)))},
    }
    _emit(_json(payload), args.output)
    return 0


def _sl2_suite(j_max: Fraction) -> list[VerificationReport]:
    _refuse_spin("--j-max", j_max, j_max)
    reports = []
    j = Fraction(1, 2)
    while j <= j_max:
        for rep in (verma_basis_irrep(j), map_to_deformed(j)):
            report = verify_sl2_relations(rep)
            is_scalar, value = casimir(rep)
            if is_scalar and value == j * (j + 1):
                report.add_pass("Casimir scalar with classical value j(j+1)", f"value {value}")
            else:
                report.add_fail(
                    "Casimir scalar with classical value j(j+1)",
                    f"is_scalar={is_scalar}, value={value}",
                )
            reports.append(report)
        j += Fraction(1, 2)
    return reports


def cmd_verify(args) -> int:
    if args.from_json and args.suite != "sl2":
        raise InputError(f"--from-json applies to verify sl2 only, not to verify {args.suite}")
    if args.order < 2:
        raise InputError("order must be at least 2")
    if args.order > MAX_ORDER:
        raise InputError(f"--order {args.order} is above the largest order {MAX_ORDER}")
    if args.suite in ("so4", "hopf"):
        dim = int((2 * args.j1 + 1) * (2 * args.j2 + 1))
        if dim > MAX_TENSOR_DIM:
            raise InputError(f"--j1 {args.j1} --j2 {args.j2} give tensor dimension {dim}, "
                             f"above the largest {MAX_TENSOR_DIM}")
    reports: list[VerificationReport] = []
    if args.suite == "sl2":
        if args.from_json:
            try:
                with open(args.from_json) as fh:
                    obj = json.load(fh)
                j = ensure_half_integer(obj["j"])
                if 2 * j + 1 > MAX_TENSOR_DIM:
                    raise InputError(f"{args.from_json} has j = {j}, which needs {2 * j + 1} "
                                     f"rows, above the largest {MAX_TENSOR_DIM}")
                rep = Irrep.from_obj(obj)
            except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError,
                    DimensionMismatch) as exc:
                raise InputError(
                    f"{args.from_json} is not a representation: "
                    f"{type(exc).__name__} {exc}"
                ) from exc
            reports.append(verify_sl2_relations(rep))
        else:
            reports.extend(_sl2_suite(args.j_max))
    elif args.suite == "hopf":
        reports.append(verify_hopf(args.j1, args.j2))
    elif args.suite == "so4":
        rep = so4.build_so4(args.j1, args.j2)
        reports.append(so4.verify_so4_relations(rep))
        reports.append(so4.verify_so4_coalgebra(rep))
    elif args.suite == "e2":
        reports.append(ncseries.suite_e2(args.order))
    elif args.suite == "e3":
        reports.append(ncseries.suite_e3(args.order))
    elif args.suite == "qe3":
        reports.append(ncseries.suite_qe3(args.order))
    elif args.suite == "all":
        reports.extend(_sl2_suite(args.j_max))
        reports.append(verify_hopf(Fraction(1, 2), Fraction(1, 2)))
        reports.append(verify_hopf(Fraction(1), Fraction(1, 2)))
        for j1, j2 in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(1, 2)), (Fraction(1), Fraction(1))):
            rep = so4.build_so4(j1, j2)
            reports.append(so4.verify_so4_relations(rep))
            reports.append(so4.verify_so4_coalgebra(rep))
        reports.append(ncseries.suite_e2(args.order))
        reports.append(ncseries.suite_e3(args.order))
        reports.append(ncseries.suite_qe3(args.order))
    if not any(r.entries for r in reports):
        raise InputError(f"verify {args.suite} with these options runs no checks")
    payload = {
        "kind": "verification",
        "status": "pass" if all(r.passed for r in reports) else "fail",
        "reports": [r.to_obj() for r in reports],
    }
    _emit(_json(payload), args.output)
    return 0 if all(r.passed for r in reports) else 1


def cmd_spectrum(args) -> int:
    for flag, value in (("--omega", args.omega), ("--pi0", args.pi0), ("--pim", args.pim)):
        if not math.isfinite(value):
            raise InputError(f"{flag} must be finite, got {value}")
    scan = ncseries.momentum_spectrum(
        args.omega, grid_points(*args.grid), pi_minus=args.pim, pi_zero=args.pi0
    )
    if args.out == "json":
        _emit(_json({"kind": "spectrum", **scan}), args.output)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["input_pi_plus", "class", "re_p_plus", "im_p_plus", "p_minus", "p_zero"])
    writer.writerows(row.values() for row in scan["rows"])   # None as an empty field
    _emit(buf.getvalue(), args.output)
    return 0


def _normalize_argv(argv):
    """Glue values onto --grid so ranges starting at a negative number
    ("-3:3:0.5") are not mistaken for option names."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--grid" and i + 1 < len(argv):
            out.append(f"--grid={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalize_argv(list(argv)))
    command = {
        "elements": cmd_elements,
        "irrep": cmd_irrep,
        "singvec": cmd_singvec,
        "verify": cmd_verify,
        "spectrum": cmd_spectrum,
    }[args.command]
    try:
        return command(args)
    # ValueError stays while bench/test_bench.py's exit-code control injects
    # one as a refused input; no refused input raises it (ROADMAP item 1)
    except (InputError, ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
