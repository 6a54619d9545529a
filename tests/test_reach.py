"""src/ holds only code that some command-line path runs.

A short list of small CLI invocations, covering every subcommand and option
value, runs in-process under sys.setprofile.  Every function and method
defined in the package must have been called by one of them, apart from a
short allowlist of paths that only a failure or a debugger reaches, and
every parameter with a default must have been passed another value by at
least one of those calls.  Code that only the tests use belongs in
tests/oracles.py; code and parameters that nothing uses are deleted.
"""

import inspect
import sys
import types
from functools import cached_property
from pathlib import Path

import jordanrep
from jordanrep.cli import main

PACKAGE_DIR = Path(jordanrep.__file__).resolve().parent

#: Reached only when a check fails, when a report is read back, or from a
#: console; qualified names, or bare names for any class.
ALLOWED = {
    "__repr__",
    "__eq__",
    "__hash__",
    "jordanrep.cli.console_entry",
    "jordanrep.report.VerificationReport.add_fail",
    "jordanrep.ncseries.AlgebraPresentation.monomial_str",
    # a failure report prints the two mismatching entries as polynomials
    "jordanrep.exact.poly.BiPoly.__str__",
}


def invocations(tmp_path):
    """`verify all` runs every suite at its real sizes; the single-suite runs
    after it only need to reach their own branch, so they are tiny (and the
    series suites find their normal forms cached)."""
    rep = str(tmp_path / "rep.json")
    return [
        ["elements", "--max-level", "3"],
        ["elements", "--max-level", "3", "--lambda", "7/3", "--format", "latex"],
        ["irrep", "--j", "1", "--basis", "verma", "--output", rep],
        ["irrep", "--j", "1", "--basis", "diagonal", "--format", "latex"],
        ["singvec", "--lambda", "4"],
        ["verify", "all", "--j-max", "1/2", "--order", "2"],
        ["verify", "sl2", "--j-max", "1"],
        ["verify", "sl2", "--from-json", rep],
        ["verify", "hopf", "--j1", "1/2", "--j2", "0"],
        ["verify", "so4", "--j1", "0", "--j2", "1/2"],
        ["verify", "e2", "--order", "2"],
        ["verify", "e3", "--order", "2"],
        ["verify", "qe3", "--order", "2"],
        ["spectrum", "--omega", "1", "--grid", "-2:1:0.5"],
        ["spectrum", "--omega", "2", "--grid", "0:1:0.5", "--pi0", "2", "--pim", "0.5",
         "--out", "json"],
    ]


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "jordanrep" or name.startswith("jordanrep.")]


def package_functions() -> tuple[dict, dict]:
    """Code object -> the names it is bound to, for every function and
    method compiled from the package's source (so not those a record class
    inherits from its namedtuple base), nested functions included; and code
    object -> {parameter: default} for those that are module or class
    attributes."""
    found: dict = {}
    defaults: dict = {}

    def visit(code, name):
        if Path(code.co_filename).resolve().is_relative_to(PACKAGE_DIR):
            found.setdefault(code, set()).add(name)
            for const in code.co_consts:
                if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                    visit(const, f"{name}.<locals>.{const.co_name}")

    for module in package_modules():
        modname = module.__name__
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != modname:
                continue
            members = vars(obj).items() if isinstance(obj, type) else [(None, obj)]
            for attr, raw in members:
                fn = raw
                if isinstance(raw, property):
                    fn = raw.fget
                elif isinstance(raw, cached_property):
                    fn = raw.func
                fn = inspect.unwrap(getattr(fn, "__func__", fn))
                if isinstance(fn, types.FunctionType):
                    qualname = obj.__qualname__ if attr is None else f"{obj.__qualname__}.{attr}"
                    visit(fn.__code__, f"{modname}.{qualname}")
                    params = inspect.signature(fn).parameters.values()
                    if fn.__code__ in found and any(p.default is not p.empty for p in params):
                        defaults[fn.__code__] = {
                            p.name: p.default for p in params if p.default is not p.empty
                        }
    return found, defaults


def allowed(names) -> bool:
    return any(name in ALLOWED or name.rsplit(".", 1)[-1] in ALLOWED for name in names)


def is_default(value, default) -> bool:
    return value is default or (type(value) is type(default) and value == default)


def test_every_package_function_runs_on_some_cli_path(tmp_path, capsys):
    functions, defaults = package_functions()
    called = set()
    overridden = set()  # (code, parameter) that some call passed a non-default

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add(code)
            for param, default in defaults.get(code, {}).items():
                if not is_default(frame.f_locals[param], default):
                    overridden.add((code, param))

    # empty the lru caches so that what they wrap runs here, whatever ran before
    for module in package_modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    sys.setprofile(profile)
    try:
        for argv in invocations(tmp_path):
            assert main(argv) == 0, argv
    finally:
        sys.setprofile(None)
    capsys.readouterr()

    never = sorted(
        min(names) for code, names in functions.items()
        if code not in called and not allowed(names)
    )
    assert not never, "run by no CLI path: " + ", ".join(never)
    always_default = sorted(
        f"{min(functions[code])}({param})"
        for code, params in defaults.items() if code in called
        for param in params if (code, param) not in overridden
    )
    assert not always_default, "parameters no CLI path sets: " + ", ".join(always_default)

