"""Importing the CLI loads neither ``dataclasses`` nor ``inspect``.

``dataclasses`` brings in ``inspect``, ``ast``, ``dis`` and ``tokenize`` and
execs the methods it generates, about half of the time ``import
jordanrep.cli`` took while the records were dataclasses; every CLI
invocation pays its import.  pytest loads both modules itself, so the probe
runs in a fresh isolated interpreter.
"""

import subprocess
import sys
from pathlib import Path

import jordanrep

SRC = str(Path(jordanrep.__file__).resolve().parent.parent)
HEAVY = ("dataclasses", "inspect")


def loaded_by_import(prelude: str = "") -> set[str]:
    """The HEAVY modules loaded after ``prelude`` and ``import jordanrep.cli``
    in a ``python -I`` process that reads the package from SRC."""
    probe = (f"import sys; sys.path.insert(0, {SRC!r}); {prelude}\n"
             "import jordanrep.cli\n"
             f"assert jordanrep.cli.__file__.startswith({SRC!r}), jordanrep.cli.__file__\n"
             f"print(*[m for m in {HEAVY!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-I", "-c", probe],
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_cli_import_loads_no_dataclasses_or_inspect():
    assert loaded_by_import() == set()


def test_probe_sees_a_loaded_dataclasses():
    """Negative control: the same probe reports the modules once they load."""
    assert loaded_by_import("import dataclasses") == {"dataclasses", "inspect"}
