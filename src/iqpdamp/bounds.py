"""Analytic error bounds and parameter selection for truncated propagation.

Everything here is closed-form: the per-coefficient decay bound, the
Hilbert-Schmidt truncation bound and its trace-deficit companion (its exact
square root), the rank-based trace-distance bound, the cutoff selection rule
inverting the simplified certificate, and the depth threshold above which a
target total-variation error can be certified. All formulas are evaluated in
log space so they stay finite far beyond n ~ 500.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

from .circuit_model import FLOAT_FMT
from .errors import CertificationError

LN2 = math.log(2.0)
LN4 = math.log(4.0)


def binary_entropy(x: float) -> float:
    """H(x) = -x ln x - (1-x) ln(1-x) in nats, with H(0) = H(1) = 0."""
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"binary_entropy domain is [0,1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log1p(-x)


def coefficient_bound(h: int, m: int, r: int, p: float, n: int) -> float:
    """Decay bound (1-p)^(r h / 2) (2 - (1-p)^r)^m / 2^n for a weight-h coefficient.

    h is the index weight, m its zero-block count, r the number of damping
    layers applied so far. Tight on the idle circuit; r=0 gives 2^-n for all
    indices.
    """
    from .hw_basis import zero_block_range

    mu, lo = zero_block_range(h, n)
    if not (lo <= m <= mu):
        raise ValueError(f"zero-block count {m} invalid for weight {h} on {n} qubits")
    if r < 0:
        raise ValueError(f"layer count must be >= 0, got {r}")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must lie in (0,1], got {p}")
    survive = (1.0 - p) ** r
    log_val = 0.5 * r * h * math.log1p(-p) if p < 1.0 else (-math.inf if r * h else 0.0)
    log_val += m * math.log(2.0 - survive) - n * LN2
    return math.exp(log_val)


def chernoff_min_keep(n: int, d: int, p: float) -> float:
    """Smallest k+1 for which the tail bound argument is valid: n(1-p)^d."""
    return n * (1.0 - p) ** d


def _require_chernoff(n: int, d: int, p: float, k: int) -> None:
    need = chernoff_min_keep(n, d, p)
    if k + 1 < need:
        if p < 1.0:
            d_req = math.log(n / (k + 1)) / math.log(1.0 / (1.0 - p))
            hint = f"; need depth d > {d_req:.6g} at this k (or k+1 >= {need:.6g})"
        else:
            hint = ""
        raise CertificationError(
            f"Chernoff regime not reached: k+1 = {k + 1} < n(1-p)^d = {need:.6g}{hint}")


def _log_hs_bound(n: int, d: int, p: float, k: int) -> float:
    """log of the squared HS truncation bound; -inf when nothing is truncated."""
    if n < 1 or d < 0 or not (0.0 < p <= 1.0):
        raise ValueError(f"invalid parameters n={n}, d={d}, p={p}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k >= 2 * n or (p == 1.0 and d >= 1):
        # every weight is kept, or full damping leaves only the weight-0 term
        return -math.inf
    survive = (1.0 - p) ** d
    damp_term = d * (k + 1) * math.log1p(-p) if p < 1.0 else 0.0  # d == 0 here
    return ((2 * n - k - 1) * math.log(2.0 - survive)
            - n * LN4
            + 2 * n * binary_entropy((k + 1) / (2 * n))
            + damp_term)


def hs_truncation_bound(n: int, d: int, p: float, k: int,
                        require_valid: bool = False) -> float:
    """Squared Hilbert-Schmidt truncation error bound for cutoff k.

    (2-(1-p)^d)^(2n-k-1) / 4^n * e^(2n H((k+1)/2n)) * (1-p)^(d(k+1)), evaluated
    in log space. The inequality is proven only when k+1 >= n(1-p)^d; pass
    require_valid=True to enforce that regime (raises CertificationError naming
    the required depth), otherwise the formula value is returned as-is.
    """
    log_hs = _log_hs_bound(n, d, p, k)
    if require_valid:
        _require_chernoff(n, d, p, k)
    return math.exp(log_hs)


def trace_deficit_bound(n: int, d: int, p: float, k: int) -> float:
    """Bound on |Tr(rho - sigma)| for cutoff k: sqrt(hs_truncation_bound), as exp(log / 2)."""
    return math.exp(0.5 * _log_hs_bound(n, d, p, k))


def exact_trace_deficit(n: int, d: int, p: float, k: int) -> float:
    """Exact 1 - Tr(sigma) of the weight-truncated state, via the diagonal binomial sum.

    Diagonal entries depend only on |a|: <a|rho|a> = (2-(1-p)^d)^(n-|a|) (1-p)^(d|a|) / 2^n,
    and truncation keeps diagonals with 2|a| <= k.
    """
    survive = (1.0 - p) ** d
    kept = 0.0
    for r in range(0, min(k // 2, n) + 1):
        kept += math.comb(n, r) * (2.0 - survive) ** (n - r) * survive ** r
    return 1.0 - kept / (2.0 ** n)


def exact_diagonal(n: int, d: int, p: float, weight: int) -> float:
    """Exact diagonal value <a|rho|a> for any |a| = weight, any diagonal circuit."""
    survive = (1.0 - p) ** d
    return (2.0 - survive) ** (n - weight) * survive ** weight / 2.0 ** n


def rank_td_bound(rank: int, eps: float) -> float:
    """Trace-distance bound (sqrt(rank) + 1) * eps from the HS and trace hypotheses."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    return (math.sqrt(rank) + 1.0) * eps


def table_size_bound(n: int, k: int) -> int:
    """sum_{m<=k} C(2n, m): entries kept at cutoff k, also a rank bound for sigma."""
    return sum(math.comb(2 * n, m) for m in range(min(k, 2 * n) + 1))


def log_rank_bound(n: int, k: int) -> float:
    """log of the sharper rank bound min(table size, e^(2n H((k+1)/2n)))."""
    log_table = math.log(table_size_bound(n, k))
    if k + 1 <= 2 * n:
        return min(log_table, 2 * n * binary_entropy((k + 1) / (2 * n)))
    return log_table


def _assemble_td(n: int, k: int, eps_prime: float) -> float:
    # (sqrt(rank) + 1) eps' in log space; rank can be astronomically large
    if eps_prime == 0.0:
        return 0.0
    log_main = 0.5 * log_rank_bound(n, k) + math.log(eps_prime)
    return (math.exp(log_main) + eps_prime) if log_main < 700.0 else math.inf


def truncation_bounds(n: int, d: int, p: float, k: int) -> tuple[float, float, float]:
    """(hs_truncation_bound, trace_deficit_bound, td_truncation_bound) at cutoff k."""
    log_hs = _log_hs_bound(n, d, p, k)
    hs = math.exp(log_hs)
    deficit = math.exp(0.5 * log_hs)
    return hs, deficit, _assemble_td(n, k, max(math.sqrt(hs), deficit))


def td_truncation_bound(n: int, d: int, p: float, k: int) -> float:
    """Trace-distance truncation bound (sqrt(rank)+1) eps' at cutoff k.

    eps' = max(sqrt(hs bound), trace-deficit bound), rank bounded by the kept
    table size.
    """
    return truncation_bounds(n, d, p, k)[2]


def depth_threshold(n: int, p: float) -> float:
    """d_T = (4 ln n + 2 ln 4) / ln(1/(1-p)); p=1 returns 0 by convention."""
    if n < 2:
        raise ValueError(f"depth_threshold needs n >= 2, got {n}")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must lie in (0,1], got {p}")
    if p == 1.0:
        return 0.0
    return (4.0 * math.log(n) + 2.0 * LN4) / math.log(1.0 / (1.0 - p))


def _certificate_rate(n: int, d: int, p: float) -> tuple[float, float]:
    """(lambda, (lambda/2 - 2) ln n - ln 4) for p < 1: the certificate's decay per unit of k."""
    lam = d * math.log(1.0 / (1.0 - p)) / math.log(n)
    return lam, (lam / 2.0 - 2.0) * math.log(n) - LN4


def simplified_certificate(n: int, d: int, p: float, k: int) -> float:
    """2 exp(-(k+1) ((lambda/2 - 2) ln n - ln 4)): the certificate the k rule inverts."""
    if p == 1.0:
        return 0.0
    return 2.0 * math.exp(-(k + 1) * _certificate_rate(n, d, p)[1])


@dataclass
class ErrorBudget:
    """The truncation bounds at one cutoff k, with the certificate that chose it.

    epsilon, delta, lam and d_threshold are None for an explicitly given k.
    """

    epsilon: float | None      # target total-variation error
    delta: float | None        # epsilon/(4+epsilon), the trace-distance budget
    k: int                     # weight cutoff
    lam: float | None          # d ln(1/(1-p)) / ln n
    d_threshold: float | None  # minimum certifiable depth for (n, p)
    hs_bound: float            # squared HS truncation error bound at k
    trace_deficit: float       # bound on |Tr(rho - sigma)| at k
    td_bound: float            # (sqrt(rank)+1) * eps' trace-distance bound at k

    def report_lines(self) -> list[str]:
        """One `name=value` line per field that is not None, in field order, at FLOAT_FMT."""
        names = ("epsilon", "delta", "k", "lambda", "depth_threshold", "hs_bound",
                 "trace_deficit_bound", "td_bound")
        return [f"{name}={format(value, FLOAT_FMT)}"
                for name, value in zip(names, astuple(self)) if value is not None]


def select_k(n: int, d: int, p: float, epsilon: float) -> ErrorBudget:
    """Choose the smallest certifying cutoff k for a target TVD epsilon.

    Inverts the simplified certificate 2 exp(-(k+1)((lambda/2-2) ln n - ln 4))
    <= delta with delta = epsilon/(4+epsilon), clamps k+1 >= n(1-p)^d so the
    tail bound applies, and populates the full budget. Refuses (raising
    CertificationError and reporting the threshold) when the certificate
    denominator is nonpositive, which happens exactly when d <= d_T.
    """
    if n < 2:
        raise ValueError(f"select_k needs n >= 2, got {n}")
    if not (0.0 < epsilon < math.inf):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must lie in (0,1], got {p}")
    delta = epsilon / (4.0 + epsilon)
    d_t = depth_threshold(n, p)

    if p == 1.0:
        # one layer of full damping leaves the zero-weight term only
        return ErrorBudget(epsilon, delta, 0, math.inf, d_t, 0.0, 0.0, 0.0)

    lam, denom = _certificate_rate(n, d, p)
    if denom <= 0.0:
        raise CertificationError(
            f"cannot certify at depth d={d}: need d > d_T = {d_t:.6g} for n={n}, p={p}")
    k = max(0, math.ceil(math.log(2.0 / delta) / denom - 1.0))
    k = max(k, math.ceil(chernoff_min_keep(n, d, p) - 1.0))
    k = min(k, 2 * n)

    _require_chernoff(n, d, p, k)
    return ErrorBudget(epsilon, delta, k, lam, d_t, *truncation_bounds(n, d, p, k))
