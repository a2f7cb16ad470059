"""Closed-form low-weight (k <= 2) propagation for two-local circuits at large n.

Propagating the full m <= 2 initial string set one string at a time costs
O(n^2) strings times O(n d) work each, hopeless in interpreted code at
n = 1000. This module reaches the same coefficients in vectorized
O(n d + E d) time (E = number of gate events) by exploiting the structure of
two-local propagation:

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
    with sparse corrections when both sigma qubits touch the same partner
    (their S rows simply add, signed), when they share direct gates (those
    act on sigma x sigma: a phase for equal signs, nothing for mixed), plus
    the single-qubit rotation phases, whose Rz angles are summed per qubit
    (theta_rz).
  * Flipping every sigma sign conjugates everything, so only the (+,+) and
    (+,-) sign patterns are computed; `hw_basis.mirrored_columns` adds the rest.
The coefficient blocks become the table's position columns in numpy alone.
"""

from __future__ import annotations

import math
from collections import defaultdict

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


def _g2_components(circuit: Circuit, cutoff: int):
    """The distinct coefficient blocks of the m <= 2 propagation.

    Returns (a00, diag_val, alpha_plus, i1, i2, alpha_pp, alpha_pm): the
    zero-weight coefficient, the common weight-2 diagonal value (0.0 when
    absent), the weight-1 row per qubit, and per unordered qubit pair (i1[j],
    i2[j]) the equal-sign and mixed-sign weight-2 rows. Blocks beyond the
    cutoff are None.
    """
    if not (0 <= cutoff <= 2):
        raise ValueError(f"fast path covers cutoff <= 2, got {cutoff}")
    n, d, p = circuit.n, circuit.d, circuit.p
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must lie in (0,1], got {p}")
    if not fast_applicable(circuit, cutoff):
        raise ValueError("fast path requires 1- and 2-local gates only")

    theta_rz = np.zeros(n)
    pair_gates: dict[tuple[int, int], list[tuple[int, float]]] = defaultdict(list)
    partners: list[list[int]] = [[] for _ in range(n)]
    for li, layer in enumerate(circuit.layers):
        for gate in layer:
            if gate.kind == RZ:
                theta_rz[gate.targets[0]] += gate.theta
            elif gate.kind == CPHASE:
                q1, q2 = sorted(gate.targets)
                if not pair_gates[(q1, q2)]:
                    partners[q1].append(q2)
                    partners[q2].append(q1)
                pair_gates[(q1, q2)].append((li, gate.theta))

    rd = (1.0 - p) ** d
    log_wbg = math.log(2.0 - rd)

    # m = 0: every diagonal qubit rides the background trajectory, gates or not
    a00 = math.exp(n * (log_wbg - math.log(2.0)))
    a_bg = rd / (2.0 - rd)
    diag_val = a00 * a_bg if cutoff == 2 else 0.0
    if cutoff == 0 or p == 1.0:
        # sigma slots carry sqrt(1-p) per layer, so all m >= 1 strings die at p = 1
        return a00, diag_val, None, None, None, None, None

    # per-pair cumulative kick angles S and single-kick deviations g = lnW - lnW_bg
    pairs = sorted(pair_gates)
    pwv = (1.0 - p) ** np.arange(d)
    pair_row = {pr: i for i, pr in enumerate(pairs)}
    inc = np.zeros((len(pairs), d))
    for i, pr in enumerate(pairs):
        for li, theta in pair_gates[pr]:
            inc[i, li] += theta
    s_cum = np.cumsum(inc, axis=1)
    em = np.exp(1j * s_cum)
    g_arr = np.log(1.0 + p * (em @ pwv)) - log_wbg
    total_theta = inc.sum(axis=1)
    q1s = np.array([pr[0] for pr in pairs], dtype=int)
    q2s = np.array([pr[1] for pr in pairs], dtype=int)

    g_sum = np.zeros(n, dtype=complex)  # G(q, +) = sum of deviations over q's partners
    np.add.at(g_sum, q1s, g_arr)
    np.add.at(g_sum, q2s, g_arr)

    log_c1 = -n * math.log(2.0) + 0.5 * d * math.log1p(-p) + (n - 1) * log_wbg
    alpha_plus = np.exp(log_c1 + g_sum - 2j * theta_rz)
    if cutoff == 1:
        return a00, diag_val, alpha_plus, None, None, None, None

    # m = 2 corrections, accumulated per ordered pair id q1*n + q2 with q1 < q2
    corr_pp = np.zeros(n * n, dtype=complex)
    corr_pm = np.zeros(n * n, dtype=complex)

    # direct pairs: drop both spurious inclusion terms, add the equal-sign phase
    pid_direct = q1s * n + q2s
    corr_pp[pid_direct] = -2.0 * g_arr + 1j * total_theta
    corr_pm[pid_direct] = -2.0 * g_arr.real

    # shared partners: the joint trajectory's S row is the signed sum of the
    # two pair rows, so the correction needs only gathered em products
    ia_parts, ib_parts, pid_parts = [], [], []
    for t in range(n):
        plist = sorted(partners[t])
        if len(plist) < 2:
            continue
        rows = np.array([pair_row[(q, t) if q < t else (t, q)] for q in plist])
        qarr = np.array(plist)
        xa, xb = np.triu_indices(len(plist), 1)
        ia_parts.append(rows[xa])
        ib_parts.append(rows[xb])
        pid_parts.append(qarr[xa] * n + qarr[xb])
    if ia_parts:
        ia = np.concatenate(ia_parts)
        ib = np.concatenate(ib_parts)
        pid_shared = np.concatenate(pid_parts)
        ga = g_arr[ia]
        gb = g_arr[ib]
        chunk = max(1, (1 << 22) // max(1, d))
        for lo in range(0, len(ia), chunk):
            hi = lo + chunk
            ea = em[ia[lo:hi]]
            eb = em[ib[lo:hi]]
            w_pp = 1.0 + p * ((ea * eb) @ pwv)
            w_pm = 1.0 + p * ((ea * eb.conj()) @ pwv)
            np.add.at(corr_pp, pid_shared[lo:hi],
                      np.log(w_pp) - ga[lo:hi] - gb[lo:hi] - log_wbg)
            np.add.at(corr_pm, pid_shared[lo:hi],
                      np.log(w_pm) - ga[lo:hi] - gb[lo:hi].conj() - log_wbg)

    i1, i2 = np.triu_indices(n, 1)
    pid = i1 * n + i2
    log_c2 = -n * math.log(2.0) + d * math.log1p(-p) + (n - 2) * log_wbg
    alpha_pp = np.exp(log_c2 + g_sum[i1] + g_sum[i2] + corr_pp[pid]
                      - 2j * (theta_rz[i1] + theta_rz[i2]))
    alpha_pm = np.exp(log_c2 + g_sum[i1] + g_sum[i2].conj() + corr_pm[pid]
                      - 2j * (theta_rz[i1] - theta_rz[i2]))
    return a00, diag_val, alpha_plus, i1, i2, alpha_pp, alpha_pm


def g2_low_weight_coefficients(circuit: Circuit, cutoff: int):
    """Columnar (kets, bras, values) form of the table, cheap to build at n ~ 10^3.

    Each block passes one entry per Hermitian pair to `hw_basis.mirrored_columns`:
    the weight-0 entry and the weight-2 diagonals, then the weight-1 entries per
    qubit and the (+,+) and (+,-) weight-2 entries per qubit pair, in ascending
    order. kets and bras are rows of ascending qubit positions padded with n
    (`hw_basis.row_width` wide); values is a complex array aligned with them.
    """
    a00, diag_val, alpha_plus, i1, i2, alpha_pp, alpha_pm = _g2_components(circuit, cutoff)
    n = circuit.n
    width = row_width(n, cutoff)

    def rows(count, *columns):
        out = np.full((count, width), n, dtype=POSITION)
        for j, column in enumerate(columns):
            out[:, j] = column
        return out

    diagonal = rows(n + 1, [n, *range(n)])  # the weight-0 row, then the row of each qubit
    blocks = [mirrored_columns(diagonal, diagonal, np.array([a00] + [diag_val] * n, dtype=complex))]
    if alpha_plus is not None:
        blocks.append(mirrored_columns(diagonal[1:], rows(n), alpha_plus))
    if alpha_pp is not None and len(i1):  # n = 1 has no pairs, and rows one position wide
        kets, bras = rows(2 * len(i1), np.repeat(i1, 2)), rows(2 * len(i1))
        kets[::2, 1], bras[1::2, 0] = i2, i2  # (+,+) (i1 i2, -) and (+,-) (i1, i2) alternate
        blocks.append(mirrored_columns(kets, bras, np.column_stack((alpha_pp, alpha_pm)).ravel()))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def g2_low_weight_table(circuit: Circuit, cutoff: int) -> HWCoefficientTable:
    """Coefficient table for cutoff <= 2 without per-string propagation.

    Exactly equivalent to build_table(circuit, cutoff) for circuits whose gates
    are all 1- or 2-local; validated against it in the test suite.
    """
    return HWCoefficientTable(circuit.n, cutoff, g2_low_weight_coefficients(circuit, cutoff))
