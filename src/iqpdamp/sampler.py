"""Sparse Fourier quasiprobability, exact prefix marginals, and bit-by-bit sampling.

The Hadamard-basis diagonal of the truncated state is a quasiprobability
q(x) = sum_s q~(s) (-1)^(x.s) whose Fourier support is the set of parities
ket XOR bra over stored coefficients, kept like a table as parity positions
(symmetric differences of ket and bra positions) beside real values. Prefix
marginals are exact sparse sums, and samples are drawn one bit at a time: a
negative child marginal forces the other branch, otherwise the bit extends
with probability S_y0 / S_y. Outcome bit 0 encodes the |+> result, 1 encodes |->.

A marginal reads only the frequencies its prefix can see. The sampler keeps
the support in one bucket per level, made on the first marginal: level 0
holds frequency 0 and level q + 1 the frequencies whose highest qubit position
is q, each with its values, their negations and the gather columns of its
other positions. A prefix of k bits sees exactly levels 0..k; any other
frequency would add an exact 0. A running sum goes through the levels in
order, so every marginal is bitwise a plain sequential loop's over the
support in level order. A child marginal continues its parent's running sum
through the one bucket of its last bit's level: that bit picks the values or
their negations, and one gather per remaining column (one on a 2-local
support) signs them. A sampler decision thus costs a few numpy calls on one
bucket, and gives the same bits as a sum from scratch, which goes through all
k + 1 levels.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from functools import cached_property

import numpy as np

from .errors import NumericalError
from .hw_basis import HWCoefficientTable, MaskView, void_rows

INDUCED_N_CAP = 12
# Largest n that `sample` accepts. Its decisions compare marginals of k-bit
# prefixes, which carry a factor 2^-k and run out of double range past k = 1023.
SAMPLE_N_CAP = 1023
_SMALLEST_NORMAL = sys.float_info.min
IMAG_TOL = 1e-12  # largest imaginary part a Fourier coefficient may keep, relative to the largest one


class QuasiDistribution:
    """Sparse real Fourier coefficients of q(x), stored scaled by 2^n.

    coeffs[s] = sum of alpha over table entries with ket XOR bra = s, which is
    2^n * q~(s); the scaling keeps every quantity O(1) at any n. The total mass
    sum_x q(x) equals coeffs[0]. `coeffs` is a read-only MaskView of parity rows
    on the same n; a plain mapping of int masks given here is checked and converted.
    """

    def __init__(self, n: int, coeffs: Mapping):
        if isinstance(coeffs, MaskView) and (coeffs.parts, coeffs.n) != (1, n):
            raise ValueError(f"coefficients must be a Fourier support on {n} qubits, "
                             f"got a {coeffs.parts}-part view on {coeffs.n}")
        self.n = n
        self._coeffs = coeffs if isinstance(coeffs, MaskView) else MaskView.from_mapping(n, coeffs)

    @property
    def coeffs(self) -> MaskView:
        return self._coeffs

    @cached_property
    def _levels(self) -> list[tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]]:
        """One bucket (values, negated values, columns) per level, made once for `marginal`.

        Level 0 holds frequency 0 and level q + 1 the frequencies whose highest
        qubit position is q, in support order. The columns hold each bucket
        frequency's other positions, -1 for padding; the highest position's
        column and any column of padding alone are dropped, so a bucket of
        single-position frequencies has none. Every array starts with one
        extra slot, value 0.0 and position -1, that takes the running sum a
        level continues from.
        """
        n = self.n
        rows = np.sort(np.where(self.coeffs.rows < n, self.coeffs.rows, -1), axis=1)
        level = (rows[:, -1] + 1).astype(np.min_scalar_type(n))  # 0 for frequency 0
        order = np.argsort(level, kind="stable")  # a radix sort on 8- and 16-bit keys
        ends = np.cumsum(np.bincount(level, minlength=n + 1)).tolist()
        rows, vals = rows[order, :-1], self.coeffs.vals[order]
        levels = []
        for start, end in zip([0] + ends, ends):
            below = rows[start:end]
            below = below[:, (below >= 0).any(axis=0)]
            bucket = np.concatenate(([0.0], vals[start:end]))
            levels.append((bucket, -bucket, tuple(np.concatenate(([-1], column)).astype(np.intp)
                                                  for column in below.T)))
        return levels

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


def fourier_table(table: HWCoefficientTable) -> QuasiDistribution:
    """Collapse a Hermitian coefficient table onto its Fourier support.

    Each entry (a, b) lands on frequency a XOR b, whose positions are the
    symmetric difference of the entry's ket and bra positions. Frequencies
    keep the order of their first entry and each sum runs in entry order.
    Support rows are as wide as the longest parity, as `MaskView.from_mapping`
    pads them, so the same support always gets the same rows. Hermitian
    partners make every accumulated coefficient real. Residual imaginary parts
    above IMAG_TOL (relative to the largest coefficient) raise NumericalError.
    """
    n, data = table.n, table.data
    both = np.sort(data.rows, axis=1)
    twice = both[:, 1:] == both[:, :-1]  # a position in ket and bra cancels; n stays n
    both[:, 1:][twice] = both[:, :-1][twice] = n
    both.sort(axis=1)
    parity = both[:, :data.rows.shape[1] // 2]
    _, first, group = np.unique(void_rows(parity), return_index=True, return_inverse=True)
    order = np.argsort(first)
    group = np.argsort(order)[group]  # renumbered by first occurrence
    real = np.bincount(group, weights=data.vals.real, minlength=len(order))
    imag = np.bincount(group, weights=data.vals.imag, minlength=len(order))
    scale = np.hypot(real, imag).max(initial=0.0)
    worst = np.abs(imag).max(initial=0.0)
    if worst > IMAG_TOL * max(1.0, scale):
        raise NumericalError(
            f"Fourier coefficients are not real: residual imaginary part {worst:.3g} "
            f"(Hermiticity violation in the coefficient table)")
    distinct = parity[first[order]]
    width = max(1, int((distinct < n).sum(axis=1).max(initial=0)))
    return QuasiDistribution(n, MaskView(n, 1, np.ascontiguousarray(distinct[:, :width]), real))


# prefix bytes read as int8 factors: "0" -> +1, "1" -> -1
_SIGNS = bytes.maketrans(b"01", b"\x01\xff")


def _add_level(level: tuple, factor: np.ndarray, negated: bool, start: float) -> float:
    """start plus the level's signed values, added one by one in bucket order.

    `negated` picks the values signed by the level's own position; the
    factor's gathers through the other columns sign the rest."""
    vals, negs, columns = level
    terms = negs if negated else vals
    if columns:
        sign = factor.take(columns[0])
        for column in columns[1:]:
            sign *= factor.take(column)
        terms = terms * sign
    else:
        terms = terms.copy()
    terms[0] = start  # in place of the leading 0.0
    return np.add.accumulate(terms)[-1]


def marginal(qd: QuasiDistribution, prefix: str, parent: float | None = None) -> float:
    """Exact S_y = sum of q(x) over all completions of the bit prefix y.

    Sparse Parseval sum: only frequencies supported on the prefix qubits
    survive the average over completions. Those are the buckets of levels
    0..k, k = len(y), of `QuasiDistribution._levels`; the rest would each add
    an exact 0. Every frequency of level j holds position j - 1, so bit
    y[j - 1] picks the level's values or their negations, and an int8 factor
    holding (-1)^y_q at each prefix position q and a trailing 1 for the
    padding signs them through the other columns. The running sum goes
    through the levels in order, each by `np.add.accumulate` (`np.sum` would
    add pairwise), so over finite coefficients the result is bitwise a
    sequential loop's over the support in level order.

    `parent`, when given, must be S of y[:-1] as `marginal` returned it. The
    loop's partial sum through level k - 1 is then parent * 2^(k-1), exact
    while `parent` is a normal double, and the sum continues from it through
    the one bucket of level k: one gather per column left there (one on a
    2-local support, none for single-position frequencies), bitwise the same
    result. A zero or subnormal parent may have lost bits to its scaling, so
    the sum starts over from 0.0 at level 0. The scaling by 2^-k,
    `math.ldexp`, is correctly rounded and never overflows, at any k.
    """
    k = len(prefix)
    n = qd.n
    if k > n:
        raise ValueError(f"prefix longer than n={n}: {prefix!r}")
    if prefix.strip("01"):
        raise ValueError(f"prefix must consist of 0s and 1s, got {prefix!r}")
    levels = qd._levels
    factor = np.frombuffer((prefix + "0").encode().translate(_SIGNS), np.int8)
    if k and parent is not None and not abs(parent) < _SMALLEST_NORMAL:
        total = _add_level(levels[k], factor, prefix[-1] == "1", math.ldexp(parent, k - 1))
    else:
        total = _add_level(levels[0], factor, False, 0.0)
        for q, bit in enumerate(prefix):
            total = _add_level(levels[q + 1], factor, bit == "1", total)
    return math.ldexp(total, -k)


def _mass(qd: QuasiDistribution) -> float:
    """The root marginal, which is the total mass; NumericalError unless it is > 0 (NaN is not).

    The root sees frequency 0 alone, so a non-finite coefficient anywhere is
    reported as mass nan: some deeper marginal would read it.
    """
    root = marginal(qd, "") if np.isfinite(qd.coeffs.vals).all() else np.nan
    if not root > 0.0:
        raise NumericalError(f"quasidistribution has nonpositive mass {root:.6g}")
    return root


def _decide(qd: QuasiDistribution, prefix: str, s_y: float,
            cache: dict[str, float]) -> tuple[float, float, str | None]:
    """(S_y0, S_y1, forced) at prefix y, with child marginals cached by prefix string.

    Each child marginal continues from s_y = S_y, so it reads only the bucket of
    frequencies whose highest position is its last bit, and is bitwise the
    marginal from scratch (see `marginal`).
    A negative child forces the other bit, or the larger child if both are negative;
    otherwise `forced` is None and the bit is 0 with probability S_y0 / S_y."""
    y0, y1 = prefix + "0", prefix + "1"
    s0, s1 = cache.get(y0), cache.get(y1)
    if s0 is None:
        s0 = cache[y0] = marginal(qd, y0, s_y)
    if s1 is None:
        s1 = cache[y1] = marginal(qd, y1, s_y)
    if s0 < 0.0 or s1 < 0.0:
        return s0, s1, "1" if s0 < 0.0 and s1 >= s0 else "0"
    return s0, s1, None


def sample(qd: QuasiDistribution, count: int, seed: int,
           audit: list | None = None) -> list[str]:
    """Draw `count` outcome strings, deterministically in `seed`.

    Bits follow `_decide`, with one random number per unforced decision. The
    child marginals of prefixes shorter than count.bit_length() + 3 bits are
    cached, so the cache holds O(count) entries; deeper prefixes seldom recur.
    When `audit` is a list, every decision is appended as (prefix, S_y0, S_y1, forced).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if qd.n > SAMPLE_N_CAP:
        raise ValueError(f"sampling capped at n <= {SAMPLE_N_CAP}, got n={qd.n}")
    root = _mass(qd)
    rng = np.random.default_rng(seed)
    cache: dict[str, float] = {}
    shallow = count.bit_length() + 3
    out = []
    for _ in range(count):
        y, s_y = "", root
        for _bit in range(qd.n):
            s0, s1, bit = _decide(qd, y, s_y, cache if len(y) < shallow else {})
            if audit is not None:
                audit.append((y, s0, s1, bit))
            if bit is None:
                if rng.random() < s0 / s_y:
                    y, s_y = y + "0", s0
                else:
                    y, s_y = y + "1", s1
            else:
                y, s_y = y + bit, s0 if bit == "0" else s1
        out.append(y)
    return out


def induced_distribution(qd: QuasiDistribution) -> dict[str, float]:
    """Exact distribution the sampler induces, by full traversal of the bit tree.

    Leaves of probability 0 are left out. Capped at n <= 12; used for TVD tests.
    """
    if qd.n > INDUCED_N_CAP:
        raise ValueError(f"induced_distribution capped at n <= {INDUCED_N_CAP}")
    root = _mass(qd)
    out: dict[str, float] = {}

    def walk(prefix: str, prob: float, s_y: float) -> None:
        if len(prefix) == qd.n:
            out[prefix] = prob
            return
        s0, s1, bit = _decide(qd, prefix, s_y, {})  # each prefix is decided once
        if bit is not None:
            walk(prefix + bit, prob, s0 if bit == "0" else s1)
            return
        p0 = s0 / s_y
        if p0 != 0.0:
            walk(prefix + "0", prob * p0, s0)
        if p0 != 1.0:
            walk(prefix + "1", prob * (1.0 - p0), s1)

    walk("", 1.0, root)
    return out
