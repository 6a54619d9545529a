"""The benchmark's workloads: fixed lists of jordanrep CLI invocations.

Each job records its size parameters (L: element-table level, j or (j1, j2):
spins, order: series truncation) so that per-job times form the scaling
curves over L, (j1, j2) and order.  The one job marked ``largest`` is the tip
of its workload's scaling curve.  Why each workload exists is written down in
README.md and BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    params: dict = field(hash=False)
    largest: bool = False

    @property
    def id(self) -> str:
        return " ".join(self.argv)

    @property
    def is_verify(self) -> bool:
        return self.argv[0] == "verify"


def _job(command: str, largest: bool = False, **params) -> Job:
    return Job(tuple(command.split()), params, largest)


WORKLOADS: dict[str, tuple[Job, ...]] = {
    "construct": (
        _job("elements --max-level 13", L=13),
        _job("elements --max-level 15", L=15),
        _job("elements --max-level 17", largest=True, L=17),
        _job("irrep --j 7 --basis verma", j="7", L=15),
        _job("singvec --lambda 12", j="6", L=13),
    ),
    "tensor": (
        _job("verify so4 --j1 1 --j2 1", j1="1", j2="1"),
        _job("verify so4 --j1 3/2 --j2 1", j1="3/2", j2="1"),
        _job("verify so4 --j1 2 --j2 1", j1="2", j2="1"),
        _job("verify so4 --j1 3/2 --j2 3/2", largest=True, j1="3/2", j2="3/2"),
        _job("verify hopf --j1 3 --j2 3", j1="3", j2="3"),
    ),
    "series": (
        _job("verify qe3 --order 6", order=6),
        _job("verify qe3 --order 8", order=8),
        _job("verify qe3 --order 10", largest=True, order=10),
        _job("verify e3 --order 14", order=14),
        _job("verify e2 --order 14", order=14),
    ),
    "mixed": (
        _job("verify all", largest=True, j_max="3", order=8),
        _job("verify sl2 --j-max 6", j_max="6"),
    ),
}
