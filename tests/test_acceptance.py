"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The full-scale sweep (criterion 4) dominates the
runtime at roughly ten minutes single-threaded; it is marked `slow`, so
`pytest -m "not slow"` leaves it out.
"""

import math
import time

import numpy as np
import pytest

import iqpdamp.cli as cli
from helpers import (
    phase_gate_matrix,
    random_density,
    random_frame_string,
    random_psd,
    trace_distance,
    weight_matrix,
)
from iqpdamp.bounds import (
    coefficient_bound,
    hs_truncation_bound,
    select_k,
    table_size_bound,
)
from iqpdamp.circuit_model import idle_circuit, random_circuit
from iqpdamp.dense_oracle import born_distribution, evolve_dense
from iqpdamp.fastpath import g2_low_weight_coefficients, g2_low_weight_table
from iqpdamp.frame_engine import llocal_branch, reconstruct_dense
from iqpdamp.hw_basis import HWIndex, build_table
from iqpdamp.sampler import fourier_table, induced_distribution, marginal, sample


def report(tag, ok, detail):
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{tag}: {detail}"


def test_ac1_full_weight_propagation_is_exact():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 13))
        p = float(rng.uniform(0.05, 0.9))
        c = random_circuit(n, d, p, seed=int(rng.integers(2 ** 31)))
        dense = evolve_dense(c).rho
        table = build_table(c, 2 * n)
        worst = max(worst, float(np.linalg.norm(table.to_dense() - dense)))
    elapsed = time.time() - start
    report("AC1", worst <= 1e-10 and elapsed <= 60.0,
           f"100 random 2-local circuits reconstructed to worst HS deviation "
           f"{worst:.3g} (limit 1e-10) in {elapsed:.1f} s (limit 60)")


def test_ac2_idle_circuit_saturates_coefficient_bound():
    n, d, p = 6, 15, 0.2
    table = build_table(idle_circuit(n, d, p), 2 * n)
    worst = 0.0
    for (ket, bra), v in table.data.items():
        idx = HWIndex(n, ket, bra)
        cap = coefficient_bound(idx.weight, idx.zero_blocks, d, p, n)
        worst = max(worst, abs(abs(v) - cap) / cap)
    report("AC2", worst <= 1e-12,
           f"idle n=6 d=15 p=0.2: worst relative gap between |alpha| and its "
           f"decay bound {worst:.3g} over {len(table)} coefficients (limit 1e-12)")


def test_ac3_measured_error_below_hs_bound():
    n, d, p = 8, 25, 0.3
    wm = weight_matrix(n)
    bounds = [hs_truncation_bound(n, d, p, k) for k in range(7)]
    start = time.time()
    worst_excess = -math.inf
    for seed in range(50):
        c = random_circuit(n, d, p, seed=seed)
        rho = evolve_dense(c).rho
        for k in range(7):
            eps_sq = float(np.sum(np.abs(rho[wm > k]) ** 2))
            worst_excess = max(worst_excess, eps_sq - bounds[k])
    elapsed = time.time() - start
    report("AC3", worst_excess <= 1e-12 and elapsed <= 300.0,
           f"50 circuits at n=8 d=25 p=0.3, k=0..6: worst measured-minus-bound "
           f"{worst_excess:.3g} (slack limit 1e-12) in {elapsed:.1f} s (limit 300)")


@pytest.mark.slow
def test_ac4_error_sweep_at_scale(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("IQPDAMP_THREADS", "1")
    out = tmp_path / "sweep.csv"
    start = time.time()
    code = cli.main(["reproduce-fig2", "--n", "10", "--d", "10", "--p", "0.1",
                     "--instances", "200", "--kmax", "6", "--out", str(out)])
    elapsed = time.time() - start
    err = capsys.readouterr().err
    lines = out.read_text().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    ok = code == 0 and len(rows) == 7
    worst_ratio = 0.0
    for row in rows:
        hs_bound, hs_max = float(row[1]), float(row[4])
        ok = ok and hs_max <= hs_bound
        worst_ratio = max(worst_ratio, hs_max / hs_bound)
    observations = err.count("observation:")
    ok = ok and observations == 2 and elapsed <= 1800.0
    report("AC4", ok,
           f"200-instance sweep n=10 d=10 p=0.1: exit {code}, worst "
           f"hs_max/hs_bound {worst_ratio:.3f} (must stay <= 1), "
           f"{observations} observations reported, {elapsed:.0f} s (limit 1800)")


def test_ac5_rank_trace_distance_bound():
    rng = np.random.default_rng(2024)
    dims = (2, 4, 8, 16, 32)
    violations = 0
    worst_slack = math.inf
    for case in ("psd-drop", "degenerate-equal", "mixed-sign"):
        for i in range(1000):
            dim = dims[i % len(dims)]
            rho = random_density(rng, dim)
            if case == "psd-drop":
                # rho - sigma is PSD: pure loss of mass
                sigma = rho - random_psd(rng, dim, rng.uniform(0.0, 0.5))
            elif case == "degenerate-equal":
                # the only way rho - sigma can be negative semidefinite
                # while Tr sigma <= 1 is sigma == rho
                sigma = rho.copy()
            else:
                # mixed-sign difference with nonnegative trace deficit
                g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                herm = (g + g.conj().T) / 2.0
                herm -= max(np.trace(herm).real, 0.0) / dim * np.eye(dim)
                sigma = rho + 0.1 * herm
            delta = rho - sigma
            td = trace_distance(rho, sigma)
            eps_prime = max(float(np.linalg.norm(delta)),
                            abs(float(np.trace(delta).real)))
            rank = max(int(np.linalg.matrix_rank(sigma)), 1)
            bound = (math.sqrt(rank) + 1.0) * eps_prime
            if td > bound + 1e-12:
                violations += 1
            worst_slack = min(worst_slack, bound - td)
    report("AC5", violations == 0,
           f"3000 randomized pairs (1000 per proof case, dim <= 32): "
           f"{violations} violations of TD <= (sqrt(rank)+1) max(deficit, HS); "
           f"smallest slack {worst_slack:.3g}")


def test_ac6_certified_end_to_end_tvd():
    n, d, p, eps = 4, 30, 0.4, 0.2
    budget = select_k(n, d, p, eps)
    worst = 0.0
    for seed in range(20):
        c = random_circuit(n, d, p, seed=seed)
        qd = fourier_table(g2_low_weight_table(c, budget.k))
        induced = induced_distribution(qd)
        born = born_distribution(evolve_dense(c))
        t = 0.5 * sum(abs(induced.get(format(x, f"0{n}b"), 0.0) - born[x])
                      for x in range(1 << n))
        worst = max(worst, t)
    report("AC6", budget.k == 1 and worst <= eps,
           f"select_k chose k={budget.k} for eps={eps} at n=4 d=30 p=0.4; "
           f"worst exact sampling TVD {worst:.3g} over 20 instances (limit {eps})")


def test_ac7_three_local_branching_matches_dense():
    rng = np.random.default_rng(77)
    worst = 0.0
    max_branches = 0
    for trial in range(200):
        s = random_frame_string(rng, 3)
        theta = math.pi if trial % 2 == 0 else float(rng.uniform(0, 2 * math.pi))
        branches = llocal_branch(s, (0, 1, 2), theta)
        max_branches = max(max_branches, len(branches))
        u = phase_gate_matrix(3, (0, 1, 2), theta)
        expected = u @ s.to_matrix() @ u.conj().T
        got = reconstruct_dense(branches, 3)
        worst = max(worst, float(np.max(np.abs(got - expected))))
    report("AC7", worst <= 1e-12 and max_branches <= 5,
           f"200 random 3-local conjugations (fixed pi and random angles): "
           f"worst deviation {worst:.3g} (limit 1e-12), "
           f"max branch count {max_branches} (limit 5)")


def test_ac8_sampler_statistics():
    c = random_circuit(3, 5, 0.3, seed=42)
    qd = fourier_table(build_table(c, 6))
    born = born_distribution(evolve_dense(c))
    q = np.array([marginal(qd, format(x, "03b")) for x in range(8)])
    exactness = float(np.max(np.abs(q - born)))

    telescope = 0.0
    for length in range(3):
        for y in range(1 << length):
            prefix = format(y, f"0{length}b") if length else ""
            gap = abs(marginal(qd, prefix)
                      - marginal(qd, prefix + "0") - marginal(qd, prefix + "1"))
            telescope = max(telescope, gap)

    n_draws = 100_000
    audit = []
    draws = sample(qd, n_draws, seed=7, audit=audit)
    freq = np.zeros(8)
    for s in draws:
        freq[int(s, 2)] += 1.0 / n_draws
    sigma = np.sqrt(q * (1.0 - q) / n_draws)
    worst_pull = float(np.max(np.abs(freq - q) / sigma))
    forced = sum(1 for a in audit if a[3] is not None)

    ok = (exactness <= 1e-12 and telescope <= 1e-12
          and worst_pull <= 4.0 and forced == 0)
    report("AC8", ok,
           f"n=3 exact landscape: q matches Born to {exactness:.3g}, "
           f"telescoping gap {telescope:.3g} (limits 1e-12), "
           f"worst frequency pull {worst_pull:.2f} sigma over {n_draws} draws "
           f"(limit 4), {forced} forced branches")


def test_ac9_large_instance_performance():
    n, d, p = 1000, 100, 0.1
    c = random_circuit(n, d, p, seed=1)
    expected = table_size_bound(n, 2)

    start = time.time()
    rows, values = g2_low_weight_coefficients(c, 2)
    columnar = time.time() - start
    start = time.time()
    table = g2_low_weight_table(c, 2)
    keyed = time.time() - start
    complete = len(values) == expected and len(table) == expected
    del table

    envelope = "met" if columnar <= 60.0 else "exceeded (soft criterion)"
    report("AC9", complete,
           f"n=1000 d=100 p=0.1 low-weight propagation: {len(values)} "
           f"coefficients in {columnar:.1f} s (60 s envelope {envelope}); "
           f"keyed-table form {keyed:.1f} s; reported, not gating")
