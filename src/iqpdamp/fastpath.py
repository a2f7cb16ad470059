"""Closed-form low-weight (k <= 2) propagation for two-local circuits at large n.

Propagating the full m <= 2 initial string set one string at a time costs
O(n^2) strings times O(n d) work each, hopeless in interpreted code at
n = 1000. This module reaches the same coefficients in vectorized
O(n^2 + E d + sum_t deg_t^2 d) time (E = number of gate events, deg_t = number
of gate partners of qubit t), the last term as two small BLAS products per
qubit. Beside the table's own O(n^2) entries it holds the P x d phase rows
of the P <= E gated pairs, one qubit's deg_t x deg_t products at a time, and
one log correction per qubit pair: no n x n scratch. It exploits the
structure of two-local propagation:

  * In a string with off-diagonal slots Q, a diagonal qubit's argument evolves
    independently of all others: per layer an optional phase kick e^{+/- i
    theta} (when a controlled phase pairs it with a sigma slot in Q) followed
    by damping. Telescoping the refeeding terms gives the qubit's accumulated
    weight factor in closed form,

        W = 1 + p * sum_{l=0}^{d-1} (1-p)^l exp(i S_l),

    where S_l is the cumulative signed kick angle through layer l. |W| >= 1 -
    (1 - (1-p)^d) > 0, so log W is always finite for p < 1.
  * Unkicked qubits share the background value W_bg = 2 - (1-p)^d and the
    background argument a_bg = (1-p)^d / W_bg.
  * log beta of a string is then a background constant plus per-sigma-qubit
    deviation sums G(q, sign) = sum over q's gate partners of ln W - ln W_bg,
    with sparse corrections when both sigma qubits touch the same partner t
    (their S rows simply add, signed, so the damping-weighted sums over l of
    every pair of t's partners are entries of two Gram matrices of t's rows
    exp(i S)), when they share direct gates (those act on sigma x sigma: a
    phase for equal signs, nothing for mixed), plus the single-qubit rotation
    phases, whose Rz angles are summed per qubit (theta_rz).
  * Flipping every sigma sign conjugates everything, so only the (+,+) and
    (+,-) sign patterns are computed; `hw_basis.mirrored_columns` adds the rest.
Each weight's entries become the table's position columns in numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit_model import CPHASE, RZ, Circuit
from .hw_basis import POSITION, HWCoefficientTable, build_table, mirrored_columns, row_width


def fast_applicable(circuit: Circuit, cutoff: int) -> bool:
    return cutoff <= 2 and all(g.locality <= 2 for _, g in circuit.gates())


def build_table_auto(circuit: Circuit, cutoff: int) -> HWCoefficientTable:
    """Dispatch to the closed-form path when it applies, else general propagation."""
    if fast_applicable(circuit, cutoff):
        return g2_low_weight_table(circuit, cutoff)
    return build_table(circuit, cutoff)


def _weight2_half(circuit, rows, log_wbg, pwv, theta_rz, g_sum, q1s, q2s, inc, em, g_arr):
    """The (+,+) and (+,-) weight-2 entries of every qubit pair, one per Hermitian pair.

    Row j of q1s, q2s, inc, em and g_arr belongs to the gated pair q1s[j] < q2s[j].
    The log corrections accumulate at each pair's index in np.triu_indices(n, 1).
    """
    n, d, p = circuit.n, circuit.d, circuit.p

    def tri(a, b):  # index of the pair a < b in np.triu_indices(n, 1)
        return a * (2 * n - a - 1) // 2 + b - a - 1

    corr_pp = np.zeros(n * (n - 1) // 2, dtype=complex)
    corr_pm = np.zeros(n * (n - 1) // 2, dtype=complex)

    # direct pairs: drop both spurious inclusion terms, add the equal-sign phase
    direct = tri(q1s, q2s)
    corr_pp[direct] = -2.0 * g_arr + 1j * inc.sum(axis=1)
    corr_pm[direct] = -2.0 * g_arr.real

    # shared partners: the joint trajectory's S row is the signed sum of the
    # two pair rows, so w_pp and w_pm of every pair of t's partners are entries
    # of two deg_t x deg_t Gram matrices of t's phase rows R: Rw @ R.T and
    # Rw @ R.conj().T with Rw = R * pwv, read on the strict upper triangle
    ends, others = np.concatenate((q1s, q2s)), np.concatenate((q2s, q1s))
    order = np.lexsort((others, ends))  # both ends of every pair: t by t, partners ascending
    for run in np.split(order, np.flatnonzero(np.diff(ends[order])) + 1):
        if len(run) < 2:
            continue
        rows_t, partner = run % len(q1s), others[run]
        xa, xb = np.triu_indices(len(run), 1)
        ga, gb, pid = g_arr[rows_t[xa]], g_arr[rows_t[xb]], tri(partner[xa], partner[xb])
        r = em[rows_t]
        rw = r * pwv
        np.add.at(corr_pp, pid, np.log(1.0 + p * (rw @ r.T)[xa, xb]) - ga - gb - log_wbg)
        np.add.at(corr_pm, pid, np.log(1.0 + p * (rw @ r.conj().T)[xa, xb]) - ga - gb.conj() - log_wbg)

    i1, i2 = np.triu_indices(n, 1)
    log_c2 = -n * math.log(2.0) + d * math.log1p(-p) + (n - 2) * log_wbg
    alpha_pp = np.exp(log_c2 + g_sum[i1] + g_sum[i2] + corr_pp - 2j * (theta_rz[i1] + theta_rz[i2]))
    alpha_pm = np.exp(log_c2 + g_sum[i1] + g_sum[i2].conj() + corr_pm
                      - 2j * (theta_rz[i1] - theta_rz[i2]))
    kets, bras = rows(2 * len(i1), np.repeat(i1, 2)), rows(2 * len(i1))
    kets[::2, 1], bras[1::2, 0] = i2, i2  # (+,+) (i1 i2, -) and (+,-) (i1, i2) alternate
    return kets, bras, np.column_stack((alpha_pp, alpha_pm)).ravel()


def g2_low_weight_coefficients(circuit: Circuit, cutoff: int):
    """Columnar (kets, bras, values) form of the table, cheap to build at n ~ 10^3.

    Each weight's half of the table, one entry per Hermitian pair, goes to
    `hw_basis.mirrored_columns`: the weight-0 entry and the weight-2 diagonals,
    then the weight-1 entries per qubit and the (+,+) and (+,-) weight-2 entries
    per qubit pair, in ascending order. kets and bras are rows of ascending
    qubit positions padded with n (`hw_basis.row_width` wide); values is a
    complex array aligned with them.
    """
    if not (0 <= cutoff <= 2):
        raise ValueError(f"fast path covers cutoff <= 2, got {cutoff}")
    n, d, p = circuit.n, circuit.d, circuit.p
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must lie in (0,1], got {p}")

    theta_rz = np.zeros(n)
    keys, layer_of, thetas = [], [], []  # per controlled phase on q1 < q2: q1 * n + q2, layer, angle
    for li, layer in enumerate(circuit.layers):
        for gate in layer:
            if gate.locality > 2:
                raise ValueError("fast path requires 1- and 2-local gates only")
            if gate.kind == RZ:
                theta_rz[gate.targets[0]] += gate.theta
            elif gate.kind == CPHASE:
                q1, q2 = sorted(gate.targets)
                keys.append(q1 * n + q2)
                layer_of.append(li)
                thetas.append(gate.theta)

    width = row_width(n, cutoff)

    def rows(count, *columns):
        out = np.full((count, width), n, dtype=POSITION)
        for j, column in enumerate(columns):
            out[:, j] = column
        return out

    rd = (1.0 - p) ** d
    log_wbg = math.log(2.0 - rd)

    # m = 0: every diagonal qubit rides the background trajectory, gates or not
    a00 = math.exp(n * (log_wbg - math.log(2.0)))
    a_bg = rd / (2.0 - rd)
    diag_val = a00 * a_bg if cutoff == 2 else 0.0
    diagonal = rows(n + 1, [n, *range(n)])  # the weight-0 row, then the row of each qubit
    halves = [(diagonal, diagonal, np.array([a00] + [diag_val] * n, dtype=complex))]

    # sigma slots carry sqrt(1-p) per layer, so all m >= 1 strings die at p = 1
    if cutoff >= 1 and p < 1.0:
        # per-pair cumulative kick angles S and single-kick deviations g = lnW - lnW_bg
        pairs, pair_of = np.unique(np.array(keys, dtype=np.int64), return_inverse=True)
        q1s, q2s = np.divmod(pairs, n)
        inc = np.zeros((len(pairs), d))
        np.add.at(inc, (pair_of, np.array(layer_of, dtype=int)), np.array(thetas, dtype=float))
        pwv = (1.0 - p) ** np.arange(d)
        em = np.exp(1j * np.cumsum(inc, axis=1))
        g_arr = np.log(1.0 + p * (em @ pwv)) - log_wbg

        g_sum = np.zeros(n, dtype=complex)  # G(q, +) = sum of deviations over q's partners
        np.add.at(g_sum, q1s, g_arr)
        np.add.at(g_sum, q2s, g_arr)

        log_c1 = -n * math.log(2.0) + 0.5 * d * math.log1p(-p) + (n - 1) * log_wbg
        halves.append((diagonal[1:], rows(n), np.exp(log_c1 + g_sum - 2j * theta_rz)))
        if cutoff == 2 and n > 1:  # n = 1 has no pairs, and rows one position wide
            halves.append(_weight2_half(circuit, rows, log_wbg, pwv, theta_rz, g_sum,
                                        q1s, q2s, inc, em, g_arr))
    return tuple(np.concatenate(parts) for parts in zip(*(mirrored_columns(*h) for h in halves)))


def g2_low_weight_table(circuit: Circuit, cutoff: int) -> HWCoefficientTable:
    """Coefficient table for cutoff <= 2 without per-string propagation.

    Exactly equivalent to build_table(circuit, cutoff) for circuits whose gates
    are all 1- or 2-local; validated against it in the test suite.
    """
    return HWCoefficientTable(circuit.n, cutoff, g2_low_weight_coefficients(circuit, cutoff))
