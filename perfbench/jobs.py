"""The timed jobs and the checks on their outputs.

A job goes through the same public calls as the `sample`, `simulate` and
`reproduce-fig2` subcommands. Each call is looked up on the package at call
time, so timing wrappers installed by `tracing` see every call. The checks
compare outputs with `checks`, which never imports the program, or with
properties the method must have; none compares with output kept from an
earlier run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math

import checks
from inputs import EPSILON, Job, small_sample_job

REL_TOL = 1e-9


def run_job(api, job: Job) -> dict:
    """Carry one job from its input to its certified output."""
    if job.kind == "fig2":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main(list(job.argv))
        return {"code": code, "csv": out.getvalue(), "stderr": err.getvalue()}
    circuit = api.parse_circuit(job.text)
    budget = api.select_k(circuit.n, circuit.d, circuit.p, EPSILON)
    table = api.build_table_auto(circuit, budget.k)
    qd = api.fourier_table(table)
    result = {"circuit": circuit, "budget": budget, "table": table, "qd": qd}
    if job.kind == "sample":
        result["outcomes"] = api.sample(qd, job.draws, job.seed)
    return result


def items(job: Job, result: dict) -> int:
    """Output items: draws, table entries, or swept circuit instances."""
    if job.kind == "sample":
        return len(result["outcomes"])
    if job.kind == "simulate":
        return len(result["table"].data)
    return int(job.argv[job.argv.index("--instances") + 1])


def fingerprint(job: Job, result: dict):
    """Cheap digest that a repeat of a deterministic job must reproduce exactly."""
    if job.kind == "fig2":
        return result["code"], result["csv"]
    data, coeffs = result["table"].data, result["qd"].coeffs
    return (len(data), sum(data.values()), len(coeffs), sum(coeffs.values()),
            tuple(result.get("outcomes", ())))


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def check_table(job: Job, result: dict, two_local: bool) -> list[str]:
    """Diagonal closed form, exact Hermiticity, entry and support counts, total mass."""
    problems = []
    n, d, p = job.n, job.d, job.p
    k = result["budget"].k
    data = result["table"].data
    diagonals = 0
    for (ket, bra), v in data.items():
        if ket != bra:
            continue
        diagonals += 1
        want = checks.diagonal_value(n, d, p, ket.bit_count())
        if _rel_err(v, want) > REL_TOL:
            problems.append(f"diagonal entry {ket:b} is {v!r}, closed form gives {want!r}")
            break
    want_diagonals = sum(math.comb(n, r) for r in range(min(k // 2, n) + 1))
    if diagonals != want_diagonals:
        problems.append(f"{diagonals} diagonal entries, expected {want_diagonals}")
    mismatched = checks.hermitian_mismatches(data, n)
    if mismatched:
        problems.append(f"{mismatched} entries lack an exact Hermitian mirror")
    mass = result["qd"].total_mass
    want_mass = checks.truncated_trace(n, d, p, k)
    if _rel_err(mass, want_mass) > REL_TOL:
        problems.append(f"Fourier total mass {mass!r}, closed form gives {want_mass!r}")
    if two_local:
        if len(data) != checks.table_size(n, k):
            problems.append(f"{len(data)} entries, expected {checks.table_size(n, k)}")
        support = len(result["qd"].coeffs)
        if support != checks.fourier_support_size(n, k):
            problems.append(f"Fourier support {support}, expected "
                            f"{checks.fourier_support_size(n, k)}")
    return problems


def check_outcomes(job: Job, result: dict) -> list[str]:
    outcomes = result["outcomes"]
    if len(outcomes) != job.draws:
        return [f"{len(outcomes)} draws, requested {job.draws}"]
    bad = [o for o in outcomes if len(o) != job.n or set(o) - {"0", "1"}]
    return [f"malformed outcome {bad[0]!r}"] if bad else []


def check_prefix_frequencies(job: Job, result: dict, bits: int = 2) -> list[str]:
    """Empirical first-`bits` prefix frequencies within 5 sigma of their exact marginals."""
    probs = checks.prefix_probabilities(result["table"].data, job.n, bits)
    counts = [0] * (1 << bits)
    for o in result["outcomes"]:
        counts[int(o[:bits], 2)] += 1
    draws = len(result["outcomes"])
    problems = []
    for y, (prob, count) in enumerate(zip(probs, counts)):
        sigma = math.sqrt(max(prob * (1.0 - prob), 0.0) / draws)
        if abs(count / draws - prob) > 5.0 * sigma:
            problems.append(f"prefix {y:0{bits}b}: frequency {count / draws:.4f}, "
                            f"exact marginal {prob:.4f}")
    return problems


def check_dense(api, job: Job, result: dict, entry_tol: float) -> list[str]:
    """Every table entry against the exact rho, and the certified TVD of the sampler."""
    rho = checks.dense_state(job.n, job.p, job.layers)
    problems = []
    worst = max(abs(v - rho[ket, bra]) for (ket, bra), v in result["table"].data.items())
    if worst > entry_tol:
        problems.append(f"table entry off the exact density matrix by {worst:.3g}")
    induced = api.induced_distribution(result["qd"])
    sampler_dist = [induced.get(format(x, f"0{job.n}b"), 0.0) for x in range(1 << job.n)]
    tvd = checks.total_variation(sampler_dist, checks.born_distribution(rho, job.n))
    if tvd > EPSILON:
        problems.append(f"sampler distribution is {tvd:.4g} from Born in TVD, "
                        f"certified {EPSILON}")
    return problems


def single_string_entry(api, circuit, ket: int, bra: int) -> complex:
    """alpha_(ket, bra) with disjoint ket and bra bits, from the one initial string
    that carries sigma_plus on ket's bits and sigma_minus on bra's, pushed
    through the circuit by the general frame engine."""
    fe = api.frame_engine
    n = circuit.n
    kinds = [fe.DIAG] * n
    for q in range(n):
        bit = 1 << (n - 1 - q)
        if ket & bit:
            kinds[q] = fe.PLUS
        elif bra & bit:
            kinds[q] = fe.MINUS
    start = fe.FrameString(n, tuple(kinds), {q: 1.0 + 0.0j for q in range(n) if kinds[q] == fe.DIAG},
                           complex(-n * math.log(2.0), 0.0))
    return sum(b.beta for b in fe.propagate(start, circuit))


def check_single_strings(api, job: Job, result: dict) -> list[str]:
    """Three off-diagonal entries, chosen from the seed, recomputed by frame propagation."""
    n = job.n
    q1, q2, q3 = (job.seed * 7919 + 11) % n, (job.seed * 104729 + 257) % n, (job.seed + 3) % n
    if q2 == q1:
        q2 = (q1 + 1) % n
    b1, b2, b3 = (1 << (n - 1 - q) for q in (q1, q2, q3))
    picks = [(b3, 0), (b1 | b2, 0), (b1, b2)]
    problems = []
    data = result["table"].data
    for ket, bra in picks:
        want = single_string_entry(api, result["circuit"], ket, bra)
        got = data.get((ket, bra), 0.0)
        if abs(got - want) > REL_TOL * abs(want):
            problems.append(f"entry ({ket:b}, {bra:b}) is {got!r}, propagation gives {want!r}")
    return problems


def check_fig2(job: Job, result: dict) -> list[str]:
    """Exit code, hs_max <= hs_bound on every row, idle column against its closed form."""
    if result["code"] != 0:
        return [f"reproduce-fig2 exited with {result['code']}: {result['stderr'].strip()}"]
    rows = list(csv.DictReader(io.StringIO(result["csv"])))
    kmax = int(job.argv[job.argv.index("--kmax") + 1])
    if [int(r["k"]) for r in rows] != list(range(kmax + 1)):
        return [f"sweep rows are k={[r['k'] for r in rows]}, expected 0..{kmax}"]
    problems = []
    idle = checks.idle_hs_tail(job.n, job.d, job.p, kmax)
    for row, want in zip(rows, idle):
        if float(row["hs_max"]) > float(row["hs_bound"]):
            problems.append(f"k={row['k']}: hs_max {row['hs_max']} above hs_bound {row['hs_bound']}")
        if _rel_err(float(row["idle_hs"]), want) > 1e-8:
            problems.append(f"k={row['k']}: idle_hs {row['idle_hs']}, closed form {want!r}")
    return problems


def check_result(api, workload: str, job: Job, result: dict) -> list[str]:
    """All checks that apply to one job of `workload`."""
    if workload == "fig2_sweep":
        return check_fig2(job, result)
    if workload == "sample_2local":
        return (check_table(job, result, two_local=True) + check_outcomes(job, result)
                + check_prefix_frequencies(job, result))
    if workload == "branch_3local":
        return (check_table(job, result, two_local=False) + check_outcomes(job, result)
                + check_dense(api, job, result, entry_tol=1e-10))
    return check_table(job, result, two_local=True) + check_single_strings(api, job, result)


def check_small_instance(api, seed: int) -> list[str]:
    """sample_2local's down-sized instance: table and certified TVD against dense evolution."""
    job = small_sample_job(api, seed)
    result = run_job(api, job)
    return check_table(job, result, two_local=True) + check_dense(api, job, result, 1e-10)
