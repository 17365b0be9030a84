"""Workload definitions and output checks for the syzmirror benchmark.

A job is one CLI invocation: a command, a geometry's job document and a
truncation order, plus any extra flags.  A workload is the list of jobs
one pass runs, in order, as a closed loop with one client.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"

GEOMETRIES = {
    "c3": "jobs/c3.json",
    "conifold": "jobs/conifold.json",
    "local_p2": "jobs/local_p2.json",
    "local_p1xp1": "perfbench/jobs/local_p1xp1.json",
    "local_dp3": "perfbench/jobs/local_dp3.json",
}

COMMANDS = (
    "brane-mirror",
    "compare-naive",
    "curve",
    "disc-invariants",
    "fiber-invariants",
    "inverse-map",
    "mirror-map",
    "validate",
)

# Draw space of the mix: (command, geometry, orders, extra flags).  Local
# P1xP1 stops at order 5 and local dP3 keeps to its cheap commands, so
# that every job stays small and per-job overhead shows.
MIX_CELLS = (
    [(c, g, range(3, 9), ()) for g in ("c3", "conifold", "local_p2") for c in COMMANDS]
    + [(c, "local_p1xp1", range(3, 6), ()) for c in COMMANDS]
    + [
        ("validate", "local_dp3", range(3, 9), ()),
        ("curve", "local_dp3", range(3, 9), ("--corrected=false",)),
        ("mirror-map", "local_dp3", range(3, 6), ()),
    ]
)

# Local P2 fiber series 1 + delta_0 to order 5, from the independent
# one-variable oracle in tests/oracle_fiber.py.
P2_FIBER = (1, -2, 5, -32, 286, -3038)


@dataclass(frozen=True)
class Job:
    command: str
    geometry: str
    order: int
    extra: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return " ".join((self.command, self.geometry, str(self.order)) + self.extra)

    def argv(self) -> list[str]:
        path = str(ROOT / GEOMETRIES[self.geometry])
        return [self.command, "--input", path, "--order", str(self.order), *self.extra]


def mix_space() -> list[Job]:
    """Every job the mix can run, in a fixed order."""
    return [
        Job(command, geometry, order, extra)
        for command, geometry, orders, extra in MIX_CELLS
        for order in orders
    ]


def mix_jobs(seed: int) -> list[Job]:
    """The mix for one seed: the whole draw space in a seeded order.

    Every seed runs the same multiset of jobs, so passes with different
    seeds do the same work and differ only in which geometry and order
    follow which; that is what a cross-job cache would see.
    """
    jobs = mix_space()
    random.Random(seed).shuffle(jobs)
    return jobs


WORKLOADS = {
    "disc_local_p2": lambda seed: [Job("disc-invariants", "local_p2", 20)],
    "fiber_local_dp3": lambda seed: [Job("fiber-invariants", "local_dp3", 7)],
    "mix_small": mix_jobs,
}


def all_jobs() -> list[Job]:
    """Every job any workload can run: the keys of ``expected.json``."""
    single = [WORKLOADS[name](0)[0] for name in ("disc_local_p2", "fiber_local_dp3")]
    return single + mix_space()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_output(job: Job, code, stdout: str, expected: dict) -> list[str]:
    """Reasons the job's result is wrong; empty when it is right.

    The exit code and stdout SHA-256 must match the values recorded by
    running the CLI as a subprocess; disc and fiber results on local P2
    are also checked against values that do not come from the library.
    """
    want = expected.get(job.key)
    if want is None:
        return [f"no recorded output for {job.key!r}"]
    problems = []
    if code != want["exit"]:
        problems.append(f"exit code {code}, expected {want['exit']}")
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    if digest != want["sha256"]:
        problems.append("stdout SHA-256 differs from the recorded one")
    if job.geometry == "local_p2" and job.command in ("disc-invariants", "fiber-invariants"):
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return problems + [f"stdout is not JSON: {exc}"]
        if job.command == "disc-invariants":
            if payload.get("integral") is not True or payload.get("flagged") != []:
                problems.append("disc invariants are not integral")
        else:
            coeffs = {tuple(r["e"]): r["c"] for r in payload["series"][0]}
            for degree in range(min(job.order, len(P2_FIBER) - 1) + 1):
                if coeffs.get((degree,)) != str(P2_FIBER[degree]):
                    problems.append(f"fiber coefficient of Q^{degree} is wrong")
    return problems
