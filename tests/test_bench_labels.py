"""The verify jobs of the benchmark's tensor and mixed workloads keep the
report suites and check labels pinned in bench/reference.json.

The benchmark gate rejects a run whose labels differ from the reference, so
a renamed, dropped or reordered check must show here first.  Each job runs
in-process and its stdout goes through the gate itself; bench/ is only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from jordanrep.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load("gate")
WORKLOADS = _load("workloads").WORKLOADS
JOBS = [job for w in ("tensor", "mixed") for job in WORKLOADS[w] if job.is_verify]


@pytest.mark.parametrize("job", JOBS, ids=[job.id for job in JOBS])
def test_verify_job_keeps_its_pinned_labels(capsys, job):
    code = main(list(job.argv))
    stdout = capsys.readouterr().out.encode()
    assert gate.check(job, code, stdout, gate.load_reference()) is None
