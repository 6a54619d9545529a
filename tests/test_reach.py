"""src/ holds only code that some command-line path runs.

A short list of small CLI invocations, covering every subcommand and option
value, runs in-process under sys.setprofile.  Every function and method
defined in the package must have been called by one of them, apart from a
short allowlist of paths that only a failure or a debugger reaches, and
every parameter with a default must have been passed another value by at
least one of those calls.  Code that only the tests use belongs in
tests/oracles.py; code and parameters that nothing uses are deleted.  An
exception class of jordanrep.errors stays only while some except clause in
the package names it, and a name that a module binds at module level stays
only while the package reads it: an imported name in the module that imports
it (so no module re-exports a name or imports one it does not use), and an
assigned name in some module.
"""

import ast
import inspect
import sys
import types
from functools import cached_property
from pathlib import Path

import jordanrep
from jordanrep import errors
from jordanrep.cli import main

PACKAGE_DIR = Path(jordanrep.__file__).resolve().parent

#: Reached only when a check fails, when a report is read back, or from a
#: console; qualified names, or bare names for any class.
ALLOWED = {
    "__repr__",
    "__eq__",
    "jordanrep.cli.console_entry",
    "jordanrep.report.VerificationReport.add_fail",
    "jordanrep.ncseries.AlgebraPresentation.monomial_str",
    # a failure report prints the two mismatching entries as polynomials
    "jordanrep.exact.poly.BiPoly.__str__",
}

#: Bound at module level and read by no module of the package.
UNREAD_NAMES = {
    # package metadata, read by users and tools as jordanrep.__version__
    "jordanrep.__version__",
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


def test_every_package_exception_is_caught_somewhere_in_the_package():
    """An exception class earns its place by a caller that catches it: every
    class that jordanrep.errors defines is named by some except clause under
    src/jordanrep, and any other failure raises a built-in exception."""
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    caught = set()
    for path in PACKAGE_DIR.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for t in ast.walk(node.type):
                    if isinstance(t, ast.Name):
                        caught.add(t.id)
                    elif isinstance(t, ast.Attribute):
                        caught.add(t.attr)
    assert defined, "jordanrep.errors defines no exception class"
    uncaught = sorted(defined - caught)
    assert not uncaught, "caught by no except clause: " + ", ".join(uncaught)


def test_every_module_level_name_is_read_in_the_package():
    """A module-level import must be read by its own module, and a
    module-level assignment by some module of the package (by name, or as an
    attribute of a module), so src/ holds no re-export, no unused import and
    no constant that only the tests read."""
    trees = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        parts = path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts
        trees[".".join(parts).removesuffix(".__init__")] = ast.parse(path.read_text(), str(path))

    loaded = {modname: {node.id for node in ast.walk(tree)
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
              for modname, tree in trees.items()}
    read_anywhere = set().union(*loaded.values()) | {
        node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)}
    unread = []
    for modname, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                read = loaded[modname]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)]
                read = read_anywhere
            else:
                continue
            unread += [f"{modname}.{name}" for name in names
                       if name not in read and f"{modname}.{name}" not in UNREAD_NAMES]
    assert not unread, "bound but read by no module of the package: " + ", ".join(unread)
