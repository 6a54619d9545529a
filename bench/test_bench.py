"""Tests of the benchmark itself: the gate's negative controls, tracing
isolation and determinism, and agreement with BENCHMARK.json.

Run from the root of a checkout: python3 -m pytest -q bench

Each negative control runs a real job against a copy of the package with
one deliberate defect and checks that the workload's fail_frac rises above
zero for the expected reason; the unmodified copy must pass.
"""

import json
import shutil
import time

import pytest

import run
import tracer
from workloads import Job

ELEMENTS = Job(("elements", "--max-level", "13"), {"L": 13}, largest=True)
E2 = Job(("verify", "e2", "--order", "14"), {"order": 14}, largest=True)
SO4 = Job(("verify", "so4", "--j1", "1", "--j2", "1"), {"j1": "1", "j2": "1"}, largest=True)


def mutated_src(tmp_path, *edits):
    """A copy of the package source with each (file, old, new) edit applied once."""
    src = tmp_path / "src"
    shutil.copytree(run.SRC / "jordanrep", src / "jordanrep",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for path, old, new in edits:
        target = src / "jordanrep" / path
        text = target.read_text()
        assert old in text, "the defect must be injected for the control to mean anything"
        target.write_text(text.replace(old, new, 1))
    return src


def run_probe(monkeypatch, src, job):
    """fail_frac and failure lines of a one-job workload run against ``src``."""
    monkeypatch.setattr(run, "SRC", src)
    monkeypatch.setitem(run.WORKLOADS, "probe", (job,))
    _metrics, attempted, failed = run.run_workload("probe", 0, 0, False, run.gate.load_reference())
    return failed / attempted


@pytest.mark.parametrize("job", [ELEMENTS, E2])
def test_unmodified_source_passes_the_gate(tmp_path, monkeypatch, capsys, job):
    assert run_probe(monkeypatch, mutated_src(tmp_path), job) == 0


@pytest.mark.parametrize(
    "job, edits, reason",
    [
        # wrong digest: one changed byte in a construction output
        (ELEMENTS, [("cli.py", 'SCHEMA = "jordan-rep/1"', 'SCHEMA = "jordan-rep/2"')], "digest"),
        # non-zero exit: the construction job is refused as a usage error
        (ELEMENTS, [("cli.py", "    table = build_table(args.max_level)",
                    "    raise ValueError('refused')")], "exit code 2"),
        # a failing check, even when the exit code still says success
        (E2, [("report.py", 'self.add_pass(label, f"zero through order {residual.order}")',
               'self.add_fail(label, "injected")'),
              ("cli.py", "return 0 if all(r.passed for r in reports) else 1", "return 0")],
         "status 'fail'"),
        # a check label dropped while every remaining check passes
        (E2, [("ncseries.py",
               'report.check_series_zero("[chi,eta] = 0", commutator_nc(chi, eta), order)',
               "pass")],
         "check labels differ"),
        # a crash inside the package
        (E2, [("ncseries.py", "    w = order + _SLACK\n    p = e2_presentation()",
               "    raise RuntimeError('injected')")],
         "crashed: RuntimeError: injected"),
    ],
)
def test_gate_negative_controls(tmp_path, monkeypatch, capsys, job, edits, reason):
    frac = run_probe(monkeypatch, mutated_src(tmp_path, *edits), job)
    assert frac > 0
    assert f"FAILED {job.id}: " in capsys.readouterr().out
    sample = run.run_job(job, False, run.gate.load_reference(), 1.0, time.monotonic() + 120)
    assert reason in sample.reason
    assert sample.run_s >= 1.0  # charged the run budget, never fast


def test_refused_job_without_reference_fails(monkeypatch, capsys):
    job = Job(("elements", "--max-level", "-1"), {}, largest=True)
    assert run_probe(monkeypatch, run.SRC, job) == 1


def test_untraced_child_never_loads_the_tracer():
    _proc, record, _ = run.spawn(E2.argv, False, 60)
    assert record["tracer_loaded"] is False and "trace" not in record
    _proc, record, _ = run.spawn(E2.argv, True, 60)
    assert record["tracer_loaded"] is True and record["trace"]["spans"]


def traced_summary(job):
    proc, record, _ = run.spawn(job.argv, True, 120)
    assert record["exit"] == 0, proc.stderr.decode()
    return record["trace"]


def test_traced_call_counts_repeat_exactly():
    jobs = (ELEMENTS, E2, SO4)
    first = [traced_summary(j) for j in jobs]
    second = [traced_summary(j) for j in jobs]
    calls = [{name: c[0] for name, c in tracer.span_totals(t).items()} for t in (first, second)]
    assert calls[0] == calls[1]
    one, two = (tracer.layer_metrics(t, 0, 0) for t in (first, second))
    counted = [m for m, unit in tracer.PER_LAYER.items() if unit in ("count", "rows")]
    assert {m: one[m] for m in counted} == {m: two[m] for m in counted}
    for layer in ("verma", "exact.poly", "ncseries", "exact.series", "so4", "exact.matrices"):
        assert any(name.startswith(layer + ".") for name in calls[0]), layer


def test_self_times_add_up_to_the_root_span():
    trace = traced_summary(SO4)
    roots = [s for s in trace["spans"] if s[0] is None]
    assert [s[1] for s in roots] == ["cli.main"]
    total_self = sum(s[4] for s in trace["spans"])
    assert total_self == pytest.approx(roots[0][3], rel=1e-9)
    metrics = tracer.layer_metrics([trace], 0, 0)
    layer_self = sum(v for m, v in metrics.items() if m.endswith(".self_s"))
    assert layer_self == pytest.approx(roots[0][3], rel=1e-9)


def test_max_coeff_bits_reads_printed_coefficients():
    out = json.dumps({"elements": [{"value": [{"c": "-255/1024", "l": 0, "h": 2}]}]})
    sample = run.Sample(ELEMENTS, None, 0, 0, 0, out.encode(), None, 0)
    assert run.max_coeff_bits([sample]) == 11


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
    for jobs in run.WORKLOADS.values():
        assert sum(j.largest for j in jobs) == 1
        assert all(j.id in run.gate.load_reference() for j in jobs)
