"""Shared oracle helpers for the test suite; independent of the code under test."""

import cmath
import math

import numpy as np


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_psd(rng, dim, trace):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m * (trace / max(np.trace(m).real, 1e-30))


def phase_gate_matrix(n, targets, theta):
    """Dense diagonal unitary: e^{i theta} on indices with all target bits set."""
    dim = 1 << n
    diag = np.ones(dim, dtype=complex)
    for z in range(dim):
        if all((z >> (n - 1 - q)) & 1 for q in targets):
            diag[z] = cmath.exp(1j * theta)
    return np.diag(diag)


def random_frame_string(rng, n):
    """Uniformly kinded frame string with unit-disc diagonal arguments."""
    from iqpdamp.frame_engine import DIAG, MINUS, PLUS, FrameString

    kinds = tuple(rng.choice((PLUS, MINUS, DIAG)) for _ in range(n))
    args = {}
    for q, k in enumerate(kinds):
        if k == DIAG:
            r, phi = rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)
            args[q] = r * cmath.exp(1j * phi)
    beta = complex(rng.normal(), rng.normal())
    while beta == 0:
        beta = complex(rng.normal(), rng.normal())
    return FrameString(n, kinds, args, cmath.log(beta))


def branch_count_bound(s, circuit):
    """prod_q (1 + 2 R_q), R_q = gates that branch `s` and cover its diagonal slot q.

    A gate branches the string when its targets hold sigmas of one sign and at
    least two diagonal slots.
    """
    from iqpdamp.frame_engine import DIAG

    resets = [0] * s.n
    for _, g in circuit.gates():
        if g.kind != "cphase":
            continue
        kinds = [s.kinds[q] for q in g.targets]
        if len({k for k in kinds if k != DIAG}) == 1 and kinds.count(DIAG) >= 2:
            for q in g.targets:
                if s.kinds[q] == DIAG:
                    resets[q] += 1
    return math.prod(1 + 2 * r for r in resets)


def weight_matrix(n):
    """weight[a, b] = popcount(a) + popcount(b)."""
    pop = np.array([bin(i).count("1") for i in range(1 << n)])
    return pop[:, None] + pop[None, :]


def truncate_by_weight(rho, n, k):
    return np.where(weight_matrix(n) <= k, rho, 0.0)


def tvd(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def trace_distance(a, b):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def hs_distance(a, b):
    return float(np.linalg.norm(a - b))


def plain_marginal(qd, prefix, parent=None, *, level_order=True):
    """The prefix marginal as a sequential loop over a plain int-keyed dict of the coefficients.

    The reference for `sampler.marginal`, which must give the same float bit for
    bit, with or without a `parent`; this loop ignores `parent` and always starts
    from 0.0. The loop runs in level order: stably by each frequency's highest
    qubit position (the lowest set bit of its mask), frequency 0 first, then in
    support order. With level_order=False it runs in support order.
    """
    k, n = len(prefix), qd.n
    y = int(prefix, 2) if k else 0
    shift = n - k
    suffix_mask = (1 << shift) - 1
    total = 0.0
    level = lambda item: item[0] and n + 1 - (item[0] & -item[0]).bit_length()
    items = dict(qd.coeffs.items()).items()
    for s, c in sorted(items, key=level) if level_order else items:
        if s & suffix_mask:
            continue
        total += -c if ((y << shift) & s).bit_count() & 1 else c
    return total / 2.0 ** k


def gathered_g2_components(circuit):
    """The k = 2 closed form of `fastpath`, with shared-partner products gathered.

    A plain reference for 2-local circuits with 0 < p < 1: every pair (a, b) of
    a qubit t's gate partners gathers the two phase rows em[a], em[b] of the
    pairs (a, t), (b, t) and sums their products against the damping weights.
    Returns seven blocks (a00, diag_val, alpha_plus, i1, i2, alpha_pp, alpha_pm):
    the zero-weight coefficient, the common weight-2 diagonal value, the
    weight-1 value per qubit, and per unordered qubit pair (i1[j], i2[j]) the
    equal-sign and mixed-sign weight-2 values. `closed_form_columns` lays them
    out as a table.
    """
    from collections import defaultdict

    n, d, p = circuit.n, circuit.d, circuit.p
    theta_rz = np.zeros(n)
    pair_gates = defaultdict(list)
    for li, gate in circuit.gates():
        if gate.kind == "rz":
            theta_rz[gate.targets[0]] += gate.theta
        else:
            pair_gates[tuple(sorted(gate.targets))].append((li, gate.theta))
    pairs = sorted(pair_gates)
    pair_row = {pr: i for i, pr in enumerate(pairs)}
    partners = defaultdict(list)
    for q1, q2 in pairs:
        partners[q1].append(q2)
        partners[q2].append(q1)

    rd = (1.0 - p) ** d
    log_wbg = math.log(2.0 - rd)
    a00 = math.exp(n * (log_wbg - math.log(2.0)))
    diag_val = a00 * (rd / (2.0 - rd))

    pwv = (1.0 - p) ** np.arange(d)
    inc = np.zeros((len(pairs), d))
    for i, pr in enumerate(pairs):
        for li, theta in pair_gates[pr]:
            inc[i, li] += theta
    em = np.exp(1j * np.cumsum(inc, axis=1))
    g_arr = np.log(1.0 + p * (em @ pwv)) - log_wbg
    q1s = np.array([pr[0] for pr in pairs], dtype=int)
    q2s = np.array([pr[1] for pr in pairs], dtype=int)
    g_sum = np.zeros(n, dtype=complex)
    np.add.at(g_sum, q1s, g_arr)
    np.add.at(g_sum, q2s, g_arr)
    log_c1 = -n * math.log(2.0) + 0.5 * d * math.log1p(-p) + (n - 1) * log_wbg
    alpha_plus = np.exp(log_c1 + g_sum - 2j * theta_rz)

    corr_pp = np.zeros(n * n, dtype=complex)
    corr_pm = np.zeros(n * n, dtype=complex)
    corr_pp[q1s * n + q2s] = -2.0 * g_arr + 1j * inc.sum(axis=1)
    corr_pm[q1s * n + q2s] = -2.0 * g_arr.real
    for t in range(n):
        plist = sorted(partners[t])
        rows = [pair_row[(q, t) if q < t else (t, q)] for q in plist]
        for xa in range(len(plist)):
            # one gathered block of products per partner a, against every later partner b
            ia, ib = rows[xa], np.array(rows[xa + 1:], dtype=int)
            ea, eb = em[ia], em[ib]
            pid = plist[xa] * n + np.array(plist[xa + 1:], dtype=int)
            w_pp = 1.0 + p * ((ea * eb) @ pwv)
            w_pm = 1.0 + p * ((ea * eb.conj()) @ pwv)
            corr_pp[pid] += np.log(w_pp) - g_arr[ia] - g_arr[ib] - log_wbg
            corr_pm[pid] += np.log(w_pm) - g_arr[ia] - g_arr[ib].conj() - log_wbg

    i1, i2 = np.triu_indices(n, 1)
    pid = i1 * n + i2
    log_c2 = -n * math.log(2.0) + d * math.log1p(-p) + (n - 2) * log_wbg
    alpha_pp = np.exp(log_c2 + g_sum[i1] + g_sum[i2] + corr_pp[pid]
                      - 2j * (theta_rz[i1] + theta_rz[i2]))
    alpha_pm = np.exp(log_c2 + g_sum[i1] + g_sum[i2].conj() + corr_pm[pid]
                      - 2j * (theta_rz[i1] - theta_rz[i2]))
    return a00, diag_val, alpha_plus, i1, i2, alpha_pp, alpha_pm


def closed_form_columns(n, blocks):
    """The table of `gathered_g2_components`' blocks as (rows, values), entry by entry.

    A row is the ket's two ascending qubit positions padded with n, then the
    bra's. Entries come in the
    fast path's order: the weight-0 entry and the weight-2 diagonals, then the
    weight-1 entries per qubit and the (+,+) and (+,-) weight-2 entries per
    qubit pair. Exact zeros are left out, and each off-diagonal entry is
    followed by its mirror, whose value 0.0 + conj(v) has a +0.0 imaginary
    part for a real v.
    """
    a00, diag_val, alpha_plus, i1, i2, alpha_pp, alpha_pm = blocks
    entries = [([n, n, n, n], complex(a00))]
    if diag_val:
        entries += [([q, n, q, n], complex(diag_val)) for q in range(n)]

    def mirrored(ket, bra, v):
        if v != 0:
            entries.extend([(ket + bra, v), (bra + ket, 0.0 + v.conjugate())])

    for q, v in enumerate(alpha_plus.tolist()):
        mirrored([q, n], [n, n], v)
    for q1, q2, pp, pm in zip(i1.tolist(), i2.tolist(), alpha_pp.tolist(), alpha_pm.tolist()):
        mirrored([q1, q2], [n, n], pp)
        mirrored([q1, n], [q2, n], pm)
    rows, values = zip(*entries)
    return np.array(rows), np.array(values)


def position_mask(n, row):
    """The n-bit mask of a row of qubit positions padded with n, qubit 0 on top."""
    return sum(1 << (n - 1 - q) for q in row if q < n)


def decoded_rows(view):
    """{key row: key} of a MaskView, decoded in plain Python.

    Asserts the one layout of tables and supports: int32 rows whose `parts`
    equal parts (ket then bra in a table, the parity in a support) each hold
    ascending distinct qubit positions padded with the sentinel n.
    """
    n, rows = view.n, view.rows
    assert rows.dtype == np.int32 and rows.ndim == 2 and rows.shape[1] % view.parts == 0
    width = rows.shape[1] // view.parts
    out = {}
    for row, key in zip(rows.tolist(), view):
        parts = [row[at:at + width] for at in range(0, len(row), width)]
        for part in parts:
            positions = [q for q in part if q != n]
            assert part == sorted(set(positions)) + [n] * (width - len(positions))
        masks = tuple(position_mask(n, part) for part in parts)
        assert masks == (key if view.parts == 2 else (key,))
        out[tuple(row)] = key
    return out
