"""Command-line interface: construction, export, verification, spectrum scan.

Subcommands
    elements  dump the recursion table of matrix elements
    irrep     construct a (2j+1)-dimensional irreducible representation
    singvec   singular-vector coefficients for an integer weight
    verify    run exact verification suites (sl2, hopf, so4, e2, e3, qe3, all)
    spectrum  scan of the inverse-map singularity, exact until each cell is printed

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
or input error (an option that the suite does not read is a usage error).
Every refused input gets one ``error:`` line: a zero spectrum parameter
omega, an empty or oversized --grid, a scan whose cells leave the float
range, malformed --from-json input (including an entry that is not c*h^d
with the power d that its position and generator fix), an unwritable
--output, a truncation order below 2 or above MAX_ORDER, a tensor dimension
(2j1+1)(2j2+1) or a --from-json dimension 2j+1 above MAX_TENSOR_DIM
(checked as soon as "j" is read), a symbolic element table above
MAX_LEVEL, a spin (--j, --lambda as 2j, --j-max) above MAX_SPIN, an
`elements --lambda` whose numerator or denominator has more than
MAX_LAMBDA_DIGITS digits, or a selection that runs no checks.  The command
line and --from-json read numbers alike: a spin with half_integer ("n" or
"odd/2"), any other rational with exact.poly.rational, which refuses a zero
denominator and, before it builds a power of ten, a decimal exponent above
exact.poly.MAX_EXPONENT in magnitude.  A negative value needs no "=".  Past
argparse, InputError, an unwritable --output's OSError and ValueError (see
main) exit 2; any other exception is a defect and propagates.
All structured output carries a top-level {"schema": "jordan-rep/1"}.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction

from . import ncseries, so4
from .errors import DimensionMismatch, InputError
from .exact import BiPoly
from .exact.poly import rational
from .irrep import (
    Irrep,
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

#: Largest number of points a spectrum grid may have: an exact scan at the
#: cap takes about 3 s on a 2-vCPU host.
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
#: the cap is the j = 107 irrep from JSON: 23 s and 68 MB, 0.7 s of it the
#: Casimir, on a host that ran `verify so4 --j1 0 --j2 107` in 16 s.  With
#: no J+ to work from, it sums e^{±hX} over the matrix powers of hX.
MAX_TENSOR_DIM = 215

#: Largest --max-level of the symbolic `elements` table, built in about
#: half a minute on a 2-vCPU host (L = 19 / 21 / 23: 2.8 / 9.8 / 27 s, about
#: 3x per two levels).
MAX_LEVEL = 23

#: Largest spin of `irrep`, `singvec` (as --lambda = 2j) and `verify sl2
#: --j-max`.  A Verma irrep builds its element table over Q at lam = 2j to
#: level 2j + 1 (`irrep --j 11 / 12 / 13`, to L = 23 / 25 / 27: 1.0 / 1.6 /
#: 4.1 s on a 2-vCPU host), and `verify sl2 --j-max 13`, which builds one
#: for every spin, takes 12.5 s.  `elements --lambda` builds the same
#: tables, so its --max-level is capped at 2 MAX_SPIN + 1 (27: 5.8 s at
#: lam = 5/3), and its lam by MAX_LAMBDA_DIGITS.
MAX_SPIN = 13

#: Most digits in each of the numerator and denominator of `elements --lambda`:
#: the largest job, `elements --max-level 27 --lambda (10^50 - 1)/(10^50 - 3)`,
#: takes 50 s on a 2-vCPU host (20 / 40 digits: 18 / 41 s).
MAX_LAMBDA_DIGITS = 50


def half_integer(value) -> Fraction:
    """A spin, from an option or a JSON "j": an int (not a bool) or the text
    "n" or "odd/2", nonnegative; anything else ("1.5", "6/4") is a ValueError."""
    match = re.fullmatch(r"(\d+)(/2)?", str(value)) if type(value) in (int, str) else None
    if match is None or (match[2] and int(match[1]) % 2 == 0):
        raise ValueError(f"a spin is a nonnegative integer or odd/2 half-integer, got {value!r}")
    return Fraction(int(match[1]), 2 if match[2] else 1)


def nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("value must be nonnegative")
    return value


def grid_spec(text: str) -> tuple[Fraction, Fraction, Fraction]:
    """'a:b:step' as three exact rationals; :func:`grid_points` checks the values."""
    try:
        start_s, stop_s, step_s = text.split(":")
        return rational(start_s), rational(stop_s), rational(step_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not of the form a:b:step")


def grid_points(start: Fraction, stop: Fraction, step: Fraction) -> list[Fraction]:
    """The inclusive grid start, start + step, ... <= stop, counted before it
    is built so that no grid larger than MAX_GRID_POINTS is allocated."""
    if step <= 0:
        raise InputError("grid step must be positive")
    last = (stop - start) // step  # index of the last point
    if last < 0:
        raise InputError("the grid is empty")
    if last >= MAX_GRID_POINTS:
        raise InputError(f"the grid has more than {MAX_GRID_POINTS} points")
    return [start + k * step for k in range(last + 1)]


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
    p_el.set_defaults(run=cmd_elements, parser=p_el)

    p_ir = sub.add_parser("irrep", allow_abbrev=False,
                          help="construct an irreducible representation")
    p_ir.add_argument("--j", type=half_integer, required=True,
                      help='half-integer spin, as "n" or "odd/2"')
    p_ir.add_argument("--basis", choices=("verma", "diagonal"), default="verma")
    p_ir.add_argument("--format", choices=("json", "latex"), default="json")
    p_ir.add_argument("--output", default=None)
    p_ir.set_defaults(run=cmd_irrep, parser=p_ir)

    p_sv = sub.add_parser("singvec", allow_abbrev=False, help="singular-vector coefficients")
    p_sv.add_argument("--lambda", dest="lam", type=nonneg_int, required=True,
                      help="nonnegative integer weight (= 2j)")
    p_sv.add_argument("--output", default=None)
    p_sv.set_defaults(run=cmd_singvec, parser=p_sv)

    p_v = sub.add_parser("verify", allow_abbrev=False, help="run exact verification suites")
    suites = p_v.add_subparsers(dest="suite", required=True)
    spin = dict(type=half_integer, default=Fraction(1, 2))
    options = {
        "--j-max": dict(spin, default=Fraction(3), help="largest spin for the sl2 suite"),
        "--from-json": dict(metavar="FILE", help="verify the sl2 relations and Casimir of a "
                            "representation read from a JSON file instead of a built one"),
        "--j1": spin, "--j2": spin,
        "--order": dict(type=int, default=8, help="truncation order for the series suites"),
    }
    for name, flags, about in (
            ("sl2", ("--j-max", "--from-json"), "sl(2) relations and Casimir of each irrep"),
            ("hopf", ("--j1", "--j2"), "coproduct, counit and antipode on V_j1 (x) V_j2"),
            ("so4", ("--j1", "--j2"), "so(4) relations and coalgebra on V_j1 (x) V_j2"),
            ("e2", ("--order",), "deformed e(2) brackets and Casimir, as series"),
            ("e3", ("--order",), "deformed e(3) brackets, maps and Casimirs, as series"),
            ("qe3", ("--order",), "q-deformed e(3) brackets and Casimir, as series"),
            ("all", ("--j-max", "--order"), "sl2, hopf and so4 at small spins, and the series")):
        p_s = suites.add_parser(name, allow_abbrev=False, help=about)
        p_s.set_defaults(run=cmd_verify, parser=p_s)
        # sl2 verifies either the built irreps up to --j-max or one read from a file
        group = p_s.add_mutually_exclusive_group() if name == "sl2" else p_s
        for flag in flags:
            group.add_argument(flag, **options[flag])
        p_s.add_argument("--output", default=None)

    p_sp = sub.add_parser("spectrum", allow_abbrev=False, help="inverse-map singularity scan")
    p_sp.add_argument("--omega", type=rational, required=True)
    p_sp.add_argument("--grid", type=grid_spec, required=True, metavar="a:b:step")
    p_sp.add_argument("--pi0", type=rational, default=Fraction(1))
    p_sp.add_argument("--pim", type=rational, default=Fraction(1))
    p_sp.add_argument("--out", choices=("csv", "json"), default="csv",
                      help="output format")
    p_sp.add_argument("--output", default=None, help="write here instead of stdout")
    p_sp.set_defaults(run=cmd_spectrum, parser=p_sp)
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
    elif max(abs(args.lam.numerator), args.lam.denominator) >= 10**MAX_LAMBDA_DIGITS:
        raise InputError(f"the numerator or denominator of --lambda is above the largest "
                         f"size, {MAX_LAMBDA_DIGITS} digits")
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
    return [verify_sl2_relations(build(Fraction(k, 2))) for k in range(1, int(2 * j_max) + 1)
            for build in (verma_basis_irrep, map_to_deformed)]


def _from_json_suite(path: str) -> list[VerificationReport]:
    try:
        with open(path) as fh:
            obj = json.load(fh)
        j = half_integer(obj["j"])
        if 2 * j + 1 > MAX_TENSOR_DIM:
            raise InputError(f"{path} has j = {j}, which needs {2 * j + 1} "
                             f"rows, above the largest {MAX_TENSOR_DIM}")
        rep = Irrep.from_obj(obj, j)
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        raise InputError(f"{path} is not a representation: {type(exc).__name__} {exc}") from exc
    return [verify_sl2_relations(rep)]


def _tensor_suite(suite: str, pairs) -> list[VerificationReport]:
    """`verify hopf` or `so4` at each (j1, j2), refused above MAX_TENSOR_DIM."""
    reports = []
    for j1, j2 in pairs:
        dim = int((2 * j1 + 1) * (2 * j2 + 1))
        if dim > MAX_TENSOR_DIM:
            raise InputError(f"--j1 {j1} --j2 {j2} give tensor dimension {dim}, "
                             f"above the largest {MAX_TENSOR_DIM}")
        if suite == "hopf":
            reports.append(verify_hopf(j1, j2))
        else:
            rep = so4.build_so4(j1, j2)
            reports += [so4.verify_so4_relations(rep), so4.verify_so4_coalgebra(rep)]
    return reports


def _series_suite(names, order: int) -> list[VerificationReport]:
    return [getattr(ncseries, "suite_" + name)(order) for name in names]


def cmd_verify(args) -> int:
    if "order" in args:  # the series suites and `all`, before any suite runs
        if args.order < 2:
            raise InputError("order must be at least 2")
        if args.order > MAX_ORDER:
            raise InputError(f"--order {args.order} is above the largest order {MAX_ORDER}")
    if args.suite == "sl2":
        reports = _from_json_suite(args.from_json) if args.from_json else _sl2_suite(args.j_max)
    elif args.suite in ("hopf", "so4"):
        reports = _tensor_suite(args.suite, [(args.j1, args.j2)])
    elif args.suite == "all":
        half, one = Fraction(1, 2), Fraction(1)
        reports = (_sl2_suite(args.j_max)
                   + _tensor_suite("hopf", [(half, half), (one, half)])
                   + _tensor_suite("so4", [(half, half), (one, half), (one, one)])
                   + _series_suite(("e2", "e3", "qe3"), args.order))
    else:
        reports = _series_suite([args.suite], args.order)
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
    """Glue a value that starts with "-" and a digit or "." onto the option
    before it ("--omega=-1/2", "--grid=-3:3:0.5"), so that argparse does not
    take it for an option name: every option of this CLI takes a value."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args, extras = parser.parse_known_args(_normalize_argv(list(argv)))
    if extras:  # reported by the subcommand's own parser, with its own usage line
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.run(args)
    # ValueError stays while bench/test_bench.py's exit-code control injects
    # one as a refused input; no refused input raises it (ROADMAP item 1)
    except (InputError, ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
