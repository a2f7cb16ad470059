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
    deferred single-qubit rotation phases.
  * Flipping every sigma sign conjugates everything, so only the (+,+) and
    (+,-) sign patterns are computed; the rest are mirrored.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from .circuit_model import CPHASE, RZ, Circuit
from .hw_basis import HWCoefficientTable, MaskMap, build_table


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
    for _, gate in circuit.gates():
        if gate.locality > 2:
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
    n_pairs = len(pairs)
    pwv = (1.0 - p) ** np.arange(d)
    if n_pairs:
        pair_row = {pr: i for i, pr in enumerate(pairs)}
        inc = np.zeros((n_pairs, d))
        for i, pr in enumerate(pairs):
            for li, theta in pair_gates[pr]:
                inc[i, li] += theta
        s_cum = np.cumsum(inc, axis=1)
        em = np.exp(1j * s_cum)
        g_arr = np.log(1.0 + p * (em @ pwv)) - log_wbg
        total_theta = inc.sum(axis=1)
        q1s = np.array([pr[0] for pr in pairs])
        q2s = np.array([pr[1] for pr in pairs])
    else:
        g_arr = np.zeros(0, dtype=complex)
        total_theta = np.zeros(0)
        q1s = q2s = np.zeros(0, dtype=int)

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

    if n_pairs:
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


def g2_low_weight_coefficients(circuit: Circuit, cutoff: int, mask_key=None):
    """Columnar (kets, bras, values) form of the table, cheap to build at n ~ 10^3.

    Lists every nonzero entry once (both Hermitian mirrors included), in no
    particular order. Values are a complex ndarray aligned with the two
    bitmask lists. With `mask_key`, each distinct bitmask is passed through it
    once and the lists hold its results, shared between an entry and its
    mirror; the keyed table uses this to build its byte keys directly.
    """
    a00, diag_val, alpha_plus, i1, i2, alpha_pp, alpha_pm = _g2_components(circuit, cutoff)
    n = circuit.n
    key = mask_key or (lambda mask: mask)
    bit_int = [1 << (n - 1 - q) for q in range(n)]
    zero, bit = key(0), [key(b) for b in bit_int]
    kets: list = [zero]
    bras: list = [zero]
    vals: list[complex] = [a00]
    if diag_val:
        kets.extend(bit)
        bras.extend(bit)
        vals.extend([diag_val] * n)
    if alpha_plus is not None:
        ap = alpha_plus.tolist()
        for q in range(n):
            v = ap[q]
            if v != 0:
                kets.append(bit[q])
                bras.append(zero)
                vals.append(v)
                kets.append(zero)
                bras.append(bit[q])
                vals.append(v.conjugate())
    if alpha_pp is not None:
        i1l = i1.tolist()
        i2l = i2.tolist()
        pp_list = alpha_pp.tolist()
        pm_list = alpha_pm.tolist()
        for idx in range(len(i1l)):
            q1, q2 = i1l[idx], i2l[idx]
            v = pp_list[idx]
            if v != 0:
                both = key(bit_int[q1] | bit_int[q2])
                kets.append(both)
                bras.append(zero)
                vals.append(v)
                kets.append(zero)
                bras.append(both)
                vals.append(v.conjugate())
            v = pm_list[idx]
            if v != 0:
                b1, b2 = bit[q1], bit[q2]
                kets.append(b1)
                bras.append(b2)
                vals.append(v)
                kets.append(b2)
                bras.append(b1)
                vals.append(v.conjugate())
    return kets, bras, np.asarray(vals, dtype=complex)


def g2_low_weight_table(circuit: Circuit, cutoff: int) -> HWCoefficientTable:
    """Coefficient table for cutoff <= 2 without per-string propagation.

    Exactly equivalent to build_table(circuit, cutoff) for circuits whose gates
    are all 1- or 2-local; validated against it in the test suite.
    """
    table = HWCoefficientTable(circuit.n, cutoff)
    kets, bras, vals = g2_low_weight_coefficients(circuit, cutoff, table.data.encode_mask)
    table.data = MaskMap.from_encoded(circuit.n, True, dict(zip(zip(kets, bras), vals.tolist())))
    return table
