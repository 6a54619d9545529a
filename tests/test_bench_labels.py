"""The benchmark's jobs keep the output pinned in bench/reference.json: the
verify jobs of the tensor and mixed workloads their report suites and check
labels, and the construct jobs their stdout bytes (by SHA-256).

The benchmark gate rejects a run whose output differs from the reference, so
a renamed, dropped or reordered check, or one changed byte of a constructed
table, irrep or singular vector, must show here first.  Each job runs
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
CONSTRUCT = [job for job in WORKLOADS["construct"] if not job.is_verify]


def run_through_gate(capsys, job):
    code = main(list(job.argv))
    stdout = capsys.readouterr().out.encode()
    return gate.check(job, code, stdout, gate.load_reference())


@pytest.mark.parametrize("job", JOBS, ids=[job.id for job in JOBS])
def test_verify_job_keeps_its_pinned_labels(capsys, job):
    assert run_through_gate(capsys, job) is None


@pytest.mark.parametrize("job", CONSTRUCT, ids=[job.id for job in CONSTRUCT])
def test_construct_job_prints_its_pinned_bytes(capsys, job):
    assert run_through_gate(capsys, job) is None
