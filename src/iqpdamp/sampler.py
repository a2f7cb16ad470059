"""Sparse Fourier quasiprobability, exact prefix marginals, and bit-by-bit sampling.

The Hadamard-basis diagonal of the truncated state is a quasiprobability
q(x) = sum_s q~(s) (-1)^(x.s) whose Fourier support is the set of parities
ket XOR bra over stored coefficients. Prefix marginals are exact sparse sums,
and samples are drawn one bit at a time: a negative child marginal forces the
other branch, otherwise the bit extends with probability S_y0 / S_y. Outcome
bit 0 encodes the |+> result, 1 encodes |->.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .hw_basis import HWCoefficientTable, MaskMap

INDUCED_N_CAP = 12


class QuasiDistribution:
    """Sparse real Fourier coefficients of q(x), stored scaled by 2^n.

    coeffs[s] = sum of alpha over table entries with ket XOR bra = s, which is
    2^n * q~(s); the scaling keeps every quantity O(1) at any n. The total mass
    sum_x q(x) equals coeffs[0]. A plain mapping given as `coeffs` is re-keyed
    into a MaskMap.
    """

    def __init__(self, n: int, coeffs=()):
        self.n = n
        self.coeffs = coeffs

    @property
    def coeffs(self) -> MaskMap:
        return self._coeffs

    @coeffs.setter
    def coeffs(self, entries) -> None:
        self._coeffs = MaskMap.of(self.n, False, entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuasiDistribution):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"QuasiDistribution(n={self.n}, coeffs={self.coeffs!r})"

    def q_tilde(self, s: int) -> float:
        return self.coeffs.get(s, 0.0) / 2.0 ** self.n

    @property
    def total_mass(self) -> float:
        return self.coeffs.get(0, 0.0)


def fourier_table(table: HWCoefficientTable, tol: float = 1e-12) -> QuasiDistribution:
    """Collapse a Hermitian coefficient table onto its Fourier support.

    Each entry (a, b) lands on frequency a XOR b; Hermitian partners make every
    accumulated coefficient real. Residual imaginary parts above `tol`
    (relative to the largest coefficient) raise NumericalError.
    """
    acc = table.parity_sums()
    scale = max((abs(v) for v in acc.values()), default=0.0)
    worst = max((abs(v.imag) for v in acc.values()), default=0.0)
    if worst > tol * max(1.0, scale):
        raise NumericalError(
            f"Fourier coefficients are not real: residual imaginary part {worst:.3g} "
            f"(Hermiticity violation in the coefficient table)")
    coeffs = MaskMap.from_encoded(table.n, False, {s: v.real for s, v in acc.items()})
    return QuasiDistribution(table.n, coeffs)


def marginal(qd: QuasiDistribution, prefix: str) -> float:
    """Exact S_y = sum of q(x) over all completions of the bit prefix y.

    Sparse Parseval sum: only frequencies supported on the prefix qubits
    survive the average over completions. O(support size) per call.
    """
    k = len(prefix)
    n = qd.n
    if k > n:
        raise ValueError(f"prefix longer than n={n}: {prefix!r}")
    y = int(prefix, 2) if k else 0
    shift = n - k
    suffix_mask = (1 << shift) - 1
    y_bits = y << shift
    total = 0.0
    for s, c in qd.coeffs.int_items():
        if s & suffix_mask:
            continue
        total += -c if (y_bits & s).bit_count() & 1 else c
    return total / 2.0 ** k


def _child_marginals(qd: QuasiDistribution, prefix: str,
                     cache: dict[str, float]) -> tuple[float, float]:
    s0, s1 = prefix + "0", prefix + "1"
    if s0 not in cache:
        cache[s0] = marginal(qd, s0)
    if s1 not in cache:
        cache[s1] = marginal(qd, s1)
    return cache[s0], cache[s1]


def sample(qd: QuasiDistribution, count: int, seed: int,
           audit: list | None = None) -> list[str]:
    """Draw `count` outcome strings, deterministically in `seed`.

    Bit rule at prefix y: if one child marginal is negative the other branch is
    forced; if both are negative (numerical noise only) the larger one is
    taken; otherwise bit 0 is chosen with probability S_y0 / S_y. When `audit`
    is a list, every decision is appended as (prefix, S_y0, S_y1, forced).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    root = marginal(qd, "")
    if root <= 0.0:
        raise NumericalError(f"quasidistribution has nonpositive mass {root:.6g}")
    rng = np.random.default_rng(seed)
    cache: dict[str, float] = {"": root}
    out = []
    for _ in range(count):
        y = ""
        s_y = root
        for _bit in range(qd.n):
            s0, s1 = _child_marginals(qd, y, cache)
            if s0 < 0.0 or s1 < 0.0:
                forced = "1" if s0 < 0.0 and (s1 >= 0.0 or s1 >= s0) else "0"
                if audit is not None:
                    audit.append((y, s0, s1, forced))
                y += forced
                s_y = s1 if forced == "1" else s0
                continue
            if audit is not None:
                audit.append((y, s0, s1, None))
            if rng.random() < s0 / s_y:
                y += "0"
                s_y = s0
            else:
                y += "1"
                s_y = s1
        out.append(y)
    return out


def induced_distribution(qd: QuasiDistribution) -> dict[str, float]:
    """Exact distribution the sampler induces, by full traversal of the bit tree.

    Capped at n <= 12; used for total-variation tests against the dense oracle.
    """
    if qd.n > INDUCED_N_CAP:
        raise ValueError(f"induced_distribution capped at n <= {INDUCED_N_CAP}")
    root = marginal(qd, "")
    if root <= 0.0:
        raise NumericalError(f"quasidistribution has nonpositive mass {root:.6g}")
    cache: dict[str, float] = {"": root}
    out: dict[str, float] = {}

    def walk(prefix: str, prob: float, s_y: float) -> None:
        if len(prefix) == qd.n:
            out[prefix] = prob
            return
        s0, s1 = _child_marginals(qd, prefix, cache)
        if s0 < 0.0 or s1 < 0.0:
            forced = "1" if s0 < 0.0 and (s1 >= 0.0 or s1 >= s0) else "0"
            walk(prefix + forced, prob, s1 if forced == "1" else s0)
            return
        p0 = s0 / s_y
        walk(prefix + "0", prob * p0, s0)
        walk(prefix + "1", prob * (1.0 - p0), s1)

    walk("", 1.0, root)
    return out
