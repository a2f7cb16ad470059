"""Workload parameters and the jobs they pose, built from the seed alone.

Building the jobs is the benchmark's set-up: it imports nothing heavy itself and
uses only the program's own generator and text format (`random_circuit`,
`Circuit`, `serialize_circuit`), so `setup_s` measures the program. The same
seed always gives the same jobs. A run repeats one round of these jobs, so
every run attempts whole rounds of the same operations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

EPSILON = 0.2  # target total-variation error of every certified job

# (n, d) pairs at p = 0.5 where select_k(n, d, p, 0.2) picks k = 2; n < 61 keeps
# Python's integer hash of the bitmask keys collision-free.
SAMPLE_SIZES = ((32, 28), (44, 30), (56, 31))
SAMPLE_P = 0.5
SAMPLE_DRAWS = 200
# Down-sized member of the same family, small enough for a dense check (k = 2).
SAMPLE_SMALL = (8, 20)

# Strong damping makes d > d_T reachable at d = 5..6 for n <= 8. The gate layout
# of each shape is fixed (drawn once with layout seed 0) and the seed relabels the
# qubits and draws every angle: branch counts depend on the layout only, and
# across random layouts they vary a hundredfold (3.4e3 to 3.8e5 branches at
# n=6, d=5), which no run-to-run bound could absorb.
BRANCH_SHAPES = ((5, 5), (6, 5), (6, 6), (8, 6))
BRANCH_P = 0.9
BRANCH_LOCALITY = 3
BRANCH_DRAWS = 200

# k = 2 with about 7.2e5 table entries; the only workload with n > 61.
TABLE_N, TABLE_D, TABLE_P = 600, 45, 0.5

# reproduce-fig2's default setting (n = 10, d = 10, p = 0.1, k <= 6). One instance
# costs seconds on a 2-core machine, so a job sweeps 5 instances (plus the idle
# reference the subcommand always adds) to keep a run within its time limit.
FIG2_N, FIG2_D, FIG2_P, FIG2_INSTANCES, FIG2_KMAX = 10, 10, 0.1, 5, 6

WORKLOADS = ("sample_2local", "branch_3local", "table_2local_large", "fig2_sweep")


@dataclass(frozen=True)
class Job:
    """One user request: a circuit document and what to do with it.

    kind is "sample" (circuit text -> certified draws), "simulate" (circuit
    text -> certified table and its Fourier form) or "fig2" (argv for
    `iqpdamp reproduce-fig2`). layers repeats the circuit as plain
    (kind, targets, theta) tuples for the dense checks; it is empty when no
    dense check applies.
    """

    kind: str
    n: int
    d: int
    p: float
    seed: int
    text: str = ""
    draws: int = 0
    layers: tuple = ()
    argv: tuple = ()


def job_seed(seed: int, index: int) -> int:
    return seed * 64 + index


def plain_layers(circuit) -> tuple:
    return tuple(tuple((g.kind, tuple(g.targets), g.theta) for g in layer)
                 for layer in circuit.layers)


def _sample_jobs(api, seed: int) -> list[Job]:
    jobs = []
    for i, (n, d) in enumerate(SAMPLE_SIZES):
        s = job_seed(seed, i)
        circuit = api.random_circuit(n, d, SAMPLE_P, locality=2, seed=s)
        jobs.append(Job("sample", n, d, SAMPLE_P, s, api.serialize_circuit(circuit),
                        SAMPLE_DRAWS))
    return jobs


def small_sample_job(api, seed: int) -> Job:
    """The down-sized sample_2local instance the dense check runs on."""
    n, d = SAMPLE_SMALL
    s = job_seed(seed, len(SAMPLE_SIZES))
    circuit = api.random_circuit(n, d, SAMPLE_P, locality=2, seed=s)
    return Job("sample", n, d, SAMPLE_P, s, api.serialize_circuit(circuit), SAMPLE_DRAWS,
               plain_layers(circuit))


def relabelled_circuit(api, layout, seed: int):
    """layout with its qubits permuted and every angle redrawn, both from seed."""
    rng = random.Random(seed)
    perm = list(range(layout.n))
    rng.shuffle(perm)
    layers = tuple(
        tuple(api.Gate(g.kind, tuple(perm[q] for q in g.targets), rng.uniform(0.0, 2.0 * math.pi))
              for g in layer)
        for layer in layout.layers)
    return api.Circuit(layout.n, layout.d, layout.p, layers)


def _branch_jobs(api, seed: int) -> list[Job]:
    jobs = []
    for i, (n, d) in enumerate(BRANCH_SHAPES):
        s = job_seed(seed, i)
        layout = api.random_circuit(n, d, BRANCH_P, locality=BRANCH_LOCALITY, seed=0)
        circuit = relabelled_circuit(api, layout, s)
        jobs.append(Job("sample", n, d, BRANCH_P, s, api.serialize_circuit(circuit),
                        BRANCH_DRAWS, plain_layers(circuit)))
    return jobs


def _table_jobs(api, seed: int) -> list[Job]:
    s = job_seed(seed, 0)
    circuit = api.random_circuit(TABLE_N, TABLE_D, TABLE_P, locality=2, seed=s)
    return [Job("simulate", TABLE_N, TABLE_D, TABLE_P, s, api.serialize_circuit(circuit))]


def _fig2_jobs(api, seed: int) -> list[Job]:
    argv = ("reproduce-fig2", "--n", str(FIG2_N), "--d", str(FIG2_D), "--p", str(FIG2_P),
            "--instances", str(FIG2_INSTANCES), "--kmax", str(FIG2_KMAX), "--seed", str(seed))
    return [Job("fig2", FIG2_N, FIG2_D, FIG2_P, seed, argv=argv)]


def make_jobs(api, workload: str, seed: int) -> list[Job]:
    """The round of jobs `workload` runs for `seed`; api is the imported iqpdamp package."""
    makers = {"sample_2local": _sample_jobs, "branch_3local": _branch_jobs,
              "table_2local_large": _table_jobs, "fig2_sweep": _fig2_jobs}
    return makers[workload](api, seed)
