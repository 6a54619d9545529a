"""Output gate: decides whether one job's output is correct.

A construction job (elements, irrep, singvec) must exit 0 and print exactly
the bytes recorded in reference.json (compared by SHA-256).  A verify job
must exit 0, report ``"status": "pass"`` overall and in every report and
entry, and carry the recorded report suites with the recorded check labels,
in order, so that a dropped check fails even when everything left passes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def report_labels(payload: dict) -> list:
    """[[suite, [check labels...]], ...] of a verification payload."""
    return [
        [r["suite"], [e["relation_label"] for e in r["entries"]]]
        for r in payload["reports"]
    ]


def check(job, exit_code, stdout: bytes, reference: dict) -> str | None:
    """None when the job's output is correct, else the reason it is not."""
    expected = reference.get(job.id)
    if not expected:
        return "no reference recorded for this job"
    if exit_code != 0:
        return f"exit code {exit_code}"
    if not job.is_verify:
        if digest(stdout) != expected["sha256"]:
            return "stdout digest differs from the reference"
        return None
    try:
        payload = json.loads(stdout)
        if payload["status"] != "pass":
            return f"status {payload['status']!r}"
        for r in payload["reports"]:
            bad = [e["relation_label"] for e in r["entries"] if e["status"] != "pass"]
            if r["status"] != "pass" or bad:
                return f"report {r['suite']!r} failed: {bad}"
        if report_labels(payload) != expected["reports"]:
            return "reports or check labels differ from the reference"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable verification output: {exc!r}"
    return None


def reference_entry(job, stdout: bytes) -> dict:
    """What reference.json records for a job whose output was accepted."""
    if not job.is_verify:
        return {"sha256": digest(stdout)}
    reports = report_labels(json.loads(stdout))
    if not reports or not all(labels for _suite, labels in reports):
        raise ValueError(f"{job.id}: a verification with no checks cannot be a reference")
    return {"reports": reports}
