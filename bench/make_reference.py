"""Record reference.json, the outputs the gate accepts, from the checked-out code.

Usage: python3 bench/make_reference.py

Run it only on a commit whose outputs are known to be right: the gate then
holds every later commit to them.  Each job runs once, untraced.
"""

import json

import gate
from run import spawn
from workloads import WORKLOADS


def main() -> None:
    reference = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            proc, record, _ = spawn(job.argv, False, 600)
            if not record or record["crashed"] or record["exit"] != 0:
                raise SystemExit(f"{job.id}: failed, exit {record and record['exit']}")
            reference[job.id] = gate.reference_entry(job, proc.stdout)
            assert gate.check(job, 0, proc.stdout, reference) is None
            print(f"recorded {job.id}")
    with open(gate.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
