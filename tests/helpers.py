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


def plain_marginal(qd, prefix):
    """The prefix marginal as a sequential loop over a plain int-keyed dict of the coefficients.

    The reference for `sampler.marginal`, which must give the same float bit for bit.
    """
    k, n = len(prefix), qd.n
    y = int(prefix, 2) if k else 0
    shift = n - k
    suffix_mask = (1 << shift) - 1
    total = 0.0
    for s, c in dict(qd.coeffs.items()).items():
        if s & suffix_mask:
            continue
        total += -c if ((y << shift) & s).bit_count() & 1 else c
    return total / 2.0 ** k
