"""Benchmark of the jordanrep CLI: end-to-end verdict time and per-layer spans.

Usage (from the root of a checkout; the standard library is all it needs):

    python3 bench/run.py --workload construct|tensor|series|mixed|all \
        [--seed N] [--seconds S] [--trace 0|1]

A closed loop with one client: the workload's jobs run one after another,
each a real CLI invocation in a fresh child process (bench/child.py), so the
package's caches start cold as they do for a user.  Jobs run in passes, each
pass every job once in an order shuffled by the seed.  The first pass always
completes; after it, a job starts only while its last run time says it ends
within --seconds.  Every job's output goes through the gate (gate.py); a
failed job ends the run and is charged the whole run budget, so it is never
fast.

Shared hosts (virtual machines, CI runners) drift in speed by up to a third
over tens of seconds.  Before each job this process times calibrate(), a
fixed piece of stdlib work, and run times are reported scaled by CAL_REF_S
over the run's median calibration time: as times at the reference speed.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each job untraced
and then traced (bench/tracer.py installed in the child) and reports the
per-layer metrics of the first pass; their times are for attribution only.
Stdout gets one line per metric, a JSON record with provenance and per-job
rows (the scaling curves), and last a JSON result line.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import gate
from workloads import WORKLOADS, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
RUN_DEADLINE_S = 170  # a whole run, timeouts included, ends within this
# about what calibrate() takes on a quiet 2-vCPU Xeon VM at 2.1 GHz, CPython 3.11
CAL_REF_S = 0.05

END_TO_END = {"wall_s": "s", "largest_job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Sample:
    job: Job
    reason: str | None  # None when the gate accepted the output
    run_s: float  # main() entry to verdict
    setup_s: float  # spawn to `import jordanrep.cli` done
    rss_mb: float
    stdout: bytes
    trace: dict | None
    cal_s: float  # calibrate() just before the job

    @property
    def ok(self) -> bool:
        return self.reason is None


def calibrate() -> float:
    """Time of a fixed piece of stdlib work much like the package's kernels:
    products of small dict polynomials with Fraction coefficients.  It runs
    in this process, so nothing the package does can change it."""
    poly = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    t0 = time.perf_counter()
    for _ in range(10):
        out = {}
        for (i, j), c in poly.items():
            for (k, m), d in poly.items():
                out[(i + k, j + m)] = out.get((i + k, j + m), 0) + c * d
    return time.perf_counter() - t0


def spawn(argv, trace: bool, timeout: float):
    """Run the child launcher; returns (completed process, its record or None,
    monotonic spawn time)."""
    cmd = [sys.executable, "-I", str(CHILD), str(SRC), "1" if trace else "0", *argv]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=timeout)
    lines = proc.stderr.decode(errors="replace").rstrip("\n").rsplit("\n", 1)
    try:
        record = json.loads(lines[-1])
    except ValueError:
        record = None
    return proc, record, t_spawn


def run_job(job: Job, trace: bool, reference: dict, budget: float, deadline: float) -> Sample:
    cal_s = calibrate()
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return Sample(job, "run deadline passed", budget, budget, 0.0, b"", None, cal_s)
    try:
        proc, record, t_spawn = spawn(job.argv, trace, timeout)
    except subprocess.TimeoutExpired:
        return Sample(job, f"timed out after {timeout:.0f} s", budget, budget, 0.0, b"", None, cal_s)
    if not isinstance(record, dict):
        reason = f"no timing record (child exit {proc.returncode})"
        return Sample(job, reason, budget, budget, 0.0, proc.stdout, None, cal_s)
    if record["tracer_loaded"] != trace:
        reason = "tracer loaded in an untraced job" if record["tracer_loaded"] else "tracer missing"
    elif record["crashed"]:
        lines = [l for l in proc.stderr.decode(errors="replace").splitlines()[:-1] if l.strip()]
        reason = "crashed: " + (lines[-1] if lines else "no traceback")
    else:
        reason = gate.check(job, record["exit"], proc.stdout, reference)
    run_s, setup_s = record["run_s"], record["t_imported"] - t_spawn
    if reason is not None:
        run_s, setup_s = max(run_s, budget), max(setup_s, budget)
    return Sample(job, reason, run_s, setup_s, record["maxrss_kb"] / 1024, proc.stdout,
                  record.get("trace"), cal_s)


def measure(workload: str, seed: int, seconds: float, trace: bool, reference: dict):
    """Untraced samples of the workload's jobs and, with ``trace``, a traced
    sample right after each.  The first pass always completes; after it, a
    job starts only if its last run says it ends within ``seconds``."""
    jobs = WORKLOADS[workload]
    rng = random.Random(seed)
    plain: list[Sample] = []
    traced: list[Sample] = []
    last: dict[str, float] = {}
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    while True:
        for job in rng.sample(jobs, len(jobs)):
            t0 = time.monotonic()
            if len(plain) >= len(jobs) and t0 - start + last[job.id] > seconds:
                return plain, traced
            plain.append(run_job(job, False, reference, seconds, deadline))
            if trace and plain[-1].ok:
                traced.append(run_job(job, True, reference, seconds, deadline))
            if not plain[-1].ok or (trace and not traced[-1].ok):
                return plain, traced
            last[job.id] = time.monotonic() - t0


def job_medians(samples: list[Sample]) -> dict[str, float]:
    times: dict[str, list[float]] = {}
    for s in samples:
        times.setdefault(s.job.id, []).append(s.run_s)
    return {job_id: statistics.median(ts) for job_id, ts in times.items()}


def speed(samples) -> float:
    """CAL_REF_S over the run's median calibration time: below 1 while the
    shared machine runs slower than it did when quiet."""
    return CAL_REF_S / statistics.median(s.cal_s for s in samples)


def end_to_end(jobs, samples) -> dict[str, float]:
    """Run times are scaled by the run's speed(), so they read as times at the
    reference speed; set-up and memory are as measured."""
    medians = job_medians(samples)
    largest = next(j for j in jobs if j.largest)
    return {
        "wall_s": sum(medians.values()) * speed(samples),
        # a run cut short by a failure may not have reached the largest job
        "largest_job_s": medians.get(largest.id, samples[-1].run_s) * speed(samples),
        "setup_s": statistics.median(s.setup_s for s in samples),
        "peak_rss_mb": max(s.rss_mb for s in samples),
    }


def max_coeff_bits(samples) -> int:
    """Largest numerator or denominator bit length among the rational
    coefficients ({"c": "p/q", ...} terms) printed by construction jobs."""
    best = 0
    stack = [json.loads(s.stdout) for s in samples if not s.job.is_verify]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if isinstance(node.get("c"), str):
                q = Fraction(node["c"])
                best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return best


def per_layer(jobs, plain, traced):
    """Layer metrics of the first traced pass, and the tracing overhead."""
    import tracer  # only traced runs load the tracing code

    first = traced[: len(jobs)]
    checks = sum(len(r["entries"]) for s in first if s.job.is_verify
                 for r in json.loads(s.stdout)["reports"])
    metrics = tracer.layer_metrics([s.trace for s in first], max_coeff_bits(first), checks)
    untraced = sum(job_medians(plain).values())
    metrics["trace.overhead_frac"] = sum(job_medians(traced).values()) / untraced - 1
    return metrics, tracer.PER_LAYER


def git_sha() -> str:
    """HEAD's commit read from .git in the checkout, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def job_rows(jobs, plain, traced) -> list[dict]:
    rows = []
    for job in jobs:
        mine = [s for s in plain if s.job is job]
        row = {
            "job": job.id,
            "params": job.params,
            "run_s": [s.run_s for s in mine],
            "setup_s": [s.setup_s for s in mine],
            "cal_s": [s.cal_s for s in mine],
            "peak_rss_mb": max((s.rss_mb for s in mine), default=None),
            "failures": [s.reason for s in mine if not s.ok],
        }
        if traced:
            row["traced_run_s"] = [s.run_s for s in traced if s.job is job]
        rows.append(row)
    return rows


def run_workload(workload, seed, seconds, trace, reference):
    """Prints one line per metric plus the JSON record; returns
    (metrics with units, attempted, failed)."""
    load_before = os.getloadavg()
    plain, traced = measure(workload, seed, seconds, trace, reference)
    load_after = os.getloadavg()
    jobs = WORKLOADS[workload]
    samples = plain + traced
    failed = sum(not s.ok for s in samples)
    if trace and failed == 0:
        values, units = per_layer(jobs, plain, traced)
    elif trace:  # no complete traced pass
        import tracer

        values, units = dict.fromkeys(tracer.PER_LAYER, 0.0), tracer.PER_LAYER
    else:
        values, units = end_to_end(jobs, plain), END_TO_END
    for name, value in values.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    print(f"{workload} fail_frac = {failed / len(samples):.6g} ratio "
          f"({failed} of {len(samples)} jobs failed)")
    for s in samples:
        if not s.ok:
            print(f"{workload} FAILED {s.job.id}: {s.reason}")
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": {
            "git_sha": git_sha(),
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_before": load_before,
            "loadavg_after": load_after,
        },
        "samples": len(plain),
        "speed": speed(plain),
        "jobs": job_rows(jobs, plain, traced),
    }
    print(json.dumps({"record": record}))
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return metrics, len(samples), failed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="shuffles the job order")
    parser.add_argument("--seconds", type=float, default=30, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jordanrep" / "cli.py").is_file():
        print(f"error: no jordanrep source under {SRC}", file=sys.stderr)
        return 2
    warm = spawn([], False, 120)[0]  # compiles the bytecode caches
    if warm.returncode != 0:
        print(f"error: importing jordanrep failed:\n{warm.stderr.decode()}", file=sys.stderr)
        return 1
    reference = gate.load_reference()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run_workload(name, args.seed, args.seconds, bool(args.trace), reference)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
