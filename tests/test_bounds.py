import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import weight_matrix
from iqpdamp.bounds import (
    ErrorBudget,
    binary_entropy,
    chernoff_min_keep,
    coefficient_bound,
    depth_threshold,
    exact_diagonal,
    exact_trace_deficit,
    hs_truncation_bound,
    log_rank_bound,
    rank_td_bound,
    select_k,
    simplified_certificate,
    table_size_bound,
    td_truncation_bound,
    trace_deficit_bound,
)
from iqpdamp.circuit_model import random_circuit
from iqpdamp.dense_oracle import evolve_dense
from iqpdamp.errors import CertificationError


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(math.log(2.0))
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


@given(st.floats(0.0, 1.0))
def test_binary_entropy_symmetry(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)
    assert 0.0 <= binary_entropy(x) <= math.log(2.0) + 1e-12


def test_coefficient_bound_edge_cases():
    # before any damping every coefficient is exactly 2^-n
    for h, m in ((0, 3), (2, 2), (6, 0)):
        assert coefficient_bound(h, m, 0, 0.3, 3) == pytest.approx(2.0 ** -3)
    # no zero blocks: pure off-diagonal/diagonal-one decay
    p, r, h, n = 0.4, 5, 3, 3
    assert coefficient_bound(h, 0, r, p, n) == pytest.approx(
        (1 - p) ** (r * h / 2) / 2 ** n)
    with pytest.raises(ValueError):
        coefficient_bound(2, 0, 3, 0.3, 3)  # m below feasible range
    with pytest.raises(ValueError):
        coefficient_bound(2, 1, -1, 0.3, 3)
    with pytest.raises(ValueError):
        coefficient_bound(2, 1, 3, 0.0, 3)


def test_coefficient_bound_at_full_damping():
    assert coefficient_bound(0, 2, 4, 1.0, 2) == pytest.approx(1.0)  # (2-0)^2 / 4
    assert coefficient_bound(2, 1, 4, 1.0, 2) == 0.0


def test_chernoff_min_keep():
    assert chernoff_min_keep(8, 10, 0.1) == pytest.approx(8 * 0.9 ** 10)
    assert chernoff_min_keep(5, 0, 0.5) == 5.0


def test_hs_bound_closed_forms():
    n, d, p = 4, 7, 0.35
    # top cutoff keeps everything
    assert hs_truncation_bound(n, d, p, 2 * n) == 0.0
    # one below the top: only the all-ones index is dropped
    expected = 4.0 ** -n * (1 - p) ** (2 * n * d)
    assert hs_truncation_bound(n, d, p, 2 * n - 1) == pytest.approx(expected)
    assert hs_truncation_bound(n, 1, 1.0, 2) == 0.0
    with pytest.raises(ValueError):
        hs_truncation_bound(n, d, p, -1)
    with pytest.raises(ValueError):
        hs_truncation_bound(0, d, p, 2)


def test_hs_bound_chernoff_gate():
    # n=8, d=10, p=0.1 needs k+1 >= 8 * 0.9^10 = 2.79
    with pytest.raises(CertificationError, match="need depth"):
        hs_truncation_bound(8, 10, 0.1, 1, require_valid=True)
    loose = hs_truncation_bound(8, 10, 0.1, 1)
    assert loose > 0.0
    assert hs_truncation_bound(8, 10, 0.1, 2, require_valid=True) > 0.0


def test_hs_bound_monotone_in_k_when_deep():
    for n, d, p in ((8, 30, 0.3), (5, 12, 0.3)):
        vals = [hs_truncation_bound(n, d, p, k) for k in range(2 * n + 1)]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi * (1 + 1e-12)


def test_hs_bound_monotone_in_depth_and_noise():
    vals = [hs_truncation_bound(8, d, 0.3, 4) for d in range(15, 60, 5)]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi
    vals = [hs_truncation_bound(8, 20, p, 4) for p in (0.2, 0.3, 0.5, 0.7, 0.9)]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi


def test_hs_bound_large_n_stays_finite():
    v = hs_truncation_bound(1000, 100, 0.1, 40)
    assert 0.0 < v < 1e-100


def test_measured_truncation_error_within_hs_bound():
    n, d, p = 5, 12, 0.3
    wm = weight_matrix(n)
    for seed in range(50):
        c = random_circuit(n, d, p, locality=3 if seed % 3 == 0 else 2, seed=seed)
        rho = evolve_dense(c).rho
        for k in (2, 3, 5):
            eps_sq = float(np.sum(np.abs(rho[wm > k]) ** 2))
            assert eps_sq <= hs_truncation_bound(n, d, p, k) + 1e-12


def test_trace_bound_is_sqrt_of_hs_bound():
    for n, d, p, k in ((4, 9, 0.2, 3), (8, 30, 0.3, 5), (13, 40, 0.55, 2)):
        hs = hs_truncation_bound(n, d, p, k)
        assert trace_deficit_bound(n, d, p, k) == pytest.approx(math.sqrt(hs), rel=1e-12)


def standalone_trace_deficit(n, d, p, k):
    """The trace-deficit bound written out with every exponent of the HS bound halved."""
    if k >= 2 * n or (p == 1.0 and d >= 1):
        return 0.0
    survive = (1.0 - p) ** d
    damp_term = 0.5 * d * (k + 1) * math.log1p(-p) if p < 1.0 else 0.0
    return math.exp((n - (k + 1) / 2) * math.log(2.0 - survive)
                    - n * math.log(2.0)
                    + n * binary_entropy((k + 1) / (2 * n))
                    + damp_term)


def test_trace_bound_equals_standalone_formula_exactly():
    for n in (1, 2, 3, 5, 8, 13, 40, 300):
        for d in (0, 1, 2, 7, 30):
            for p in (0.01, 0.1, 0.3, 0.5, 0.9, 0.999, 1.0):
                for k in {0, 1, 2, 3, n, 2 * n - 1, 2 * n, 2 * n + 3}:
                    assert trace_deficit_bound(n, d, p, k) == standalone_trace_deficit(n, d, p, k)


def test_trace_bound_closed_form_at_top():
    n, d, p = 4, 7, 0.35
    expected = 2.0 ** -n * (1 - p) ** (n * d)
    assert trace_deficit_bound(n, d, p, 2 * n - 1) == pytest.approx(expected)
    assert trace_deficit_bound(n, d, p, 2 * n) == 0.0


def test_exact_trace_deficit_within_bound():
    n, d, p = 8, 10, 0.1
    for k in range(2, 16):  # Chernoff-valid from k = 2 here
        exact = exact_trace_deficit(n, d, p, k)
        assert 0.0 <= exact <= trace_deficit_bound(n, d, p, k) * (1 + 1e-9)
    assert abs(exact_trace_deficit(n, d, p, 16)) < 1e-12


def test_exact_diagonal_matches_dense():
    for n, seed in ((3, 1), (5, 2)):
        c = random_circuit(n, 8, 0.3, seed=seed)
        diag = np.real(np.diag(evolve_dense(c).rho))
        pop = np.array([bin(i).count("1") for i in range(1 << n)])
        for a in range(1 << n):
            assert diag[a] == pytest.approx(
                exact_diagonal(n, c.d, c.p, int(pop[a])), abs=1e-13)


def test_exact_trace_deficit_consistent_with_diagonals():
    n, d, p, k = 5, 6, 0.25, 4
    kept = sum(math.comb(n, r) * exact_diagonal(n, d, p, r)
               for r in range(k // 2 + 1))
    assert exact_trace_deficit(n, d, p, k) == pytest.approx(1.0 - kept, abs=1e-13)


def test_rank_td_bound_values():
    assert rank_td_bound(4, 0.1) == pytest.approx(0.3)
    assert rank_td_bound(1, 0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rank_td_bound(0, 0.1)
    with pytest.raises(ValueError):
        rank_td_bound(4, -0.1)


def test_table_size_and_log_rank_bounds():
    assert table_size_bound(4, 0) == 1
    assert table_size_bound(4, 1) == 9
    assert table_size_bound(4, 8) == 2 ** 8
    assert table_size_bound(4, 99) == 2 ** 8
    assert log_rank_bound(4, 0) == pytest.approx(0.0)  # min picks log(1)
    for k in range(9):
        assert log_rank_bound(4, k) <= math.log(table_size_bound(4, k)) + 1e-12


def test_td_bound_assembly():
    n, d, p, k = 4, 30, 0.4, 1
    hs = hs_truncation_bound(n, d, p, k)
    deficit = trace_deficit_bound(n, d, p, k)
    rank = min(table_size_bound(n, k),
               math.exp(2 * n * binary_entropy((k + 1) / (2 * n))))
    expected = (math.sqrt(rank) + 1.0) * max(math.sqrt(hs), deficit)
    assert td_truncation_bound(n, d, p, k) == pytest.approx(expected, rel=1e-12)


def test_depth_threshold_properties():
    # dominant term 4 ln n / ln(1/(1-p)) at large n
    n, p = 10 ** 6, 0.3
    lead = 4.0 * math.log(n) / math.log(1.0 / (1.0 - p))
    assert depth_threshold(n, p) == pytest.approx(lead, rel=0.06)
    grid = [depth_threshold(n, 0.2) for n in (2, 5, 20, 100, 10 ** 4)]
    for lo, hi in zip(grid[:-1], grid[1:]):
        assert lo < hi
    grid = [depth_threshold(50, p) for p in (0.05, 0.2, 0.5, 0.9)]
    for hi, lo in zip(grid[:-1], grid[1:]):
        assert lo < hi
    assert depth_threshold(10, 1.0) == 0.0
    assert depth_threshold(10, 0.1) > 10.0
    with pytest.raises(ValueError):
        depth_threshold(1, 0.3)
    with pytest.raises(ValueError):
        depth_threshold(10, 0.0)


def test_simplified_certificate_values():
    assert simplified_certificate(8, 30, 1.0, 2) == 0.0
    n, d, p = 8, 100, 0.3  # beyond the depth threshold, so the exponent is positive
    lam = d * math.log(1 / (1 - p)) / math.log(n)
    denom = (lam / 2 - 2) * math.log(n) - math.log(4.0)
    for k in (0, 1, 3):
        assert simplified_certificate(n, d, p, k) == pytest.approx(
            2.0 * math.exp(-(k + 1) * denom))
    vals = [simplified_certificate(n, d, p, k) for k in range(6)]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo < hi


def test_select_k_frozen_cases():
    budget = select_k(4, 30, 0.4, 0.2)
    assert budget.k == 1
    assert budget.delta == pytest.approx(0.2 / 4.2)
    budget = select_k(100, 202, 0.1, 0.1)
    assert budget.k == 98


def test_select_k_budget_fields_consistent():
    n, d, p, eps = 4, 30, 0.4, 0.2
    b = select_k(n, d, p, eps)
    assert b.epsilon == eps
    assert b.lam == pytest.approx(d * math.log(1 / (1 - p)) / math.log(n))
    assert b.d_threshold == pytest.approx(depth_threshold(n, p))
    assert b.hs_bound == pytest.approx(hs_truncation_bound(n, d, p, b.k))
    assert b.trace_deficit == pytest.approx(trace_deficit_bound(n, d, p, b.k))
    assert b.td_bound == pytest.approx(td_truncation_bound(n, d, p, b.k))
    assert b.td_bound <= b.delta  # the certificate actually certifies


def test_select_k_matches_direct_scan():
    def scan(n, d, p, eps):
        delta = eps / (4.0 + eps)
        k = 0
        while simplified_certificate(n, d, p, k) > delta:
            k += 1
        k = max(k, math.ceil(chernoff_min_keep(n, d, p) - 1.0))
        return min(k, 2 * n)

    for n in (4, 8, 20, 100):
        for p in (0.2, 0.4, 0.7):
            d_t = depth_threshold(n, p)
            for mult in (1.1, 1.5, 3.0):
                d = math.ceil(d_t * mult)
                for eps in (0.05, 0.2, 0.8):
                    assert select_k(n, d, p, eps).k == scan(n, d, p, eps)


def test_select_k_refuses_shallow_circuits():
    with pytest.raises(CertificationError, match="d_T"):
        select_k(4, 5, 0.3, 0.2)
    d_t = depth_threshold(4, 0.3)
    with pytest.raises(CertificationError):
        select_k(4, math.floor(d_t), 0.3, 0.2)
    select_k(4, math.ceil(d_t) + 1, 0.3, 0.2)  # just above threshold works


def test_select_k_full_damping_budget():
    b = select_k(6, 3, 1.0, 0.2)
    assert (b.k, b.hs_bound, b.trace_deficit, b.td_bound) == (0, 0.0, 0.0, 0.0)


def test_select_k_input_validation():
    with pytest.raises(ValueError):
        select_k(1, 30, 0.3, 0.2)
    with pytest.raises(ValueError):
        select_k(4, 30, 0.3, 0.0)
    with pytest.raises(ValueError):
        select_k(4, 30, 1.2, 0.2)
    for eps in (math.nan, math.inf, -math.inf, -0.1):
        with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
            select_k(4, 30, 0.4, eps)


def test_select_k_scaling_at_fixed_noise_rate():
    # hold lambda ~ 6 by scaling d with ln n: k never grows, (k+1) d stays bounded
    p = 1.0 - math.exp(-1.0)
    prev_k = None
    for n in (10, 30, 100, 300, 1000, 10000):
        d = math.ceil(6 * math.log(n))
        b = select_k(n, d, p, 0.1)
        assert b.td_bound <= b.delta
        assert (b.k + 1) * d <= 100
        if prev_k is not None:
            assert b.k <= prev_k
        prev_k = b.k


def test_report_lines_shape():
    lines = select_k(4, 30, 0.4, 0.2).report_lines()
    keys = [ln.split("=")[0] for ln in lines]
    assert keys == ["epsilon", "delta", "k", "lambda", "depth_threshold",
                    "hs_bound", "trace_deficit_bound", "td_bound"]
    assert any(ln == "k=1" for ln in lines)
    # an explicitly given k has no certificate: only k and the bounds are reported
    bounds = (hs_truncation_bound(4, 30, 0.4, 3), trace_deficit_bound(4, 30, 0.4, 3),
              td_truncation_bound(4, 30, 0.4, 3))
    assert ErrorBudget(None, None, 3, None, None, *bounds).report_lines() == [
        "k=3", *(f"{name}={x:.17g}" for name, x in
                 zip(("hs_bound", "trace_deficit_bound", "td_bound"), bounds))]
