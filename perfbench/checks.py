"""Reference values the benchmark checks the program's outputs against.

Nothing here imports iqpdamp: every value comes from a closed form or from a
small dense simulation written apart from the program, so a fault in the code
under test cannot also hide in its check. Bit convention as in the program:
qubit 0 is the most significant bit of a basis index or bitmask.

A circuit is given here as (n, p, layers), each layer a sequence of
(kind, targets, theta) with kind "rz" or "cphase"; every layer is followed by
one amplitude-damping step of strength p on every qubit.
"""

from __future__ import annotations

import math

import numpy as np


def diagonal_value(n: int, d: int, p: float, weight: int) -> float:
    """<a|rho|a> for any |a| = weight after d damped layers of any diagonal circuit.

    Diagonal gates leave the computational-basis populations alone, so each
    qubit ends in |1> with probability (1-p)^d / 2 independently:
    (2-(1-p)^d)^(n-|a|) (1-p)^(d|a|) / 2^n, evaluated in log space.
    """
    survive = (1.0 - p) ** d
    log_val = (n - weight) * math.log(2.0 - survive) - n * math.log(2.0)
    if weight:
        log_val += weight * d * math.log1p(-p)
    return math.exp(log_val)


def table_size(n: int, k: int) -> int:
    """Number of ket-bra indices (a, b) on n qubits with |a| + |b| <= k."""
    return sum(math.comb(2 * n, m) for m in range(min(k, 2 * n) + 1))


def fourier_support_size(n: int, k: int) -> int:
    """Distinct parities a XOR b over all indices of weight <= k: masks of <= k bits."""
    return sum(math.comb(n, j) for j in range(min(k, n) + 1))


def truncated_trace(n: int, d: int, p: float, k: int) -> float:
    """Sum of the diagonal entries a weight-k truncation keeps (those with 2|a| <= k)."""
    return sum(math.comb(n, r) * diagonal_value(n, d, p, r) for r in range(min(k // 2, n) + 1))


def idle_hs_tail(n: int, d: int, p: float, kmax: int) -> list[float]:
    """Sum of |rho_ab|^2 over weights > k on the idle (damping-only) circuit, k = 0..kmax.

    The idle state is a product of identical one-qubit states with entries
    1 - s/2, sqrt(s)/2 (twice) and s/2, s = (1-p)^d, so the squared entries
    binned by weight are the coefficients of ((1-s/2)^2 + (s/2) z + (s^2/4) z^2)^n.
    """
    s = (1.0 - p) ** d
    one = [(1.0 - s / 2.0) ** 2, s / 2.0, s * s / 4.0]
    poly = [1.0]
    for _ in range(n):
        poly = np.convolve(poly, one)
    return [float(np.sum(poly[k + 1:])) for k in range(kmax + 1)]


def _qubit_axes(rho: np.ndarray, n: int, q: int) -> np.ndarray:
    """View with qubit q's row bit on axis 1 and column bit on axis 4."""
    hi, lo = 1 << q, 1 << (n - 1 - q)
    return rho.reshape(hi, 2, lo, hi, 2, lo)


def dense_state(n: int, p: float, layers) -> np.ndarray:
    """Exact 2^n x 2^n output density matrix, starting from |+><+|^n.

    A gate layer multiplies rho entrywise by e^{i(phi(x) - phi(y))}; damping
    applies the Kraus pair K0 = diag(1, sqrt(1-p)), K1 = sqrt(p)|0><1| on each
    qubit in turn.
    """
    dim = 1 << n
    index = np.arange(dim)
    bits = [(index >> (n - 1 - q)) & 1 for q in range(n)]
    rho = np.full((dim, dim), 1.0 / dim, dtype=complex)
    keep = np.sqrt(1.0 - p)
    for layer in layers:
        phi = np.zeros(dim)
        for kind, targets, theta in layer:
            if kind == "rz":
                phi += theta * (1 - 2 * bits[targets[0]])
            else:
                fires = np.ones(dim, dtype=bool)
                for t in targets:
                    fires &= bits[t] == 1
                phi += theta * fires
        u = np.exp(1j * phi)
        rho = u[:, None] * rho * u.conj()[None, :]
        for q in range(n):
            v = _qubit_axes(rho, n, q)
            refeed = p * v[:, 1, :, :, 1, :]
            v[:, 0, :, :, 1, :] *= keep
            v[:, 1, :, :, 0, :] *= keep
            v[:, 1, :, :, 1, :] *= 1.0 - p
            v[:, 0, :, :, 0, :] += refeed
    return rho


def born_distribution(rho: np.ndarray, n: int) -> np.ndarray:
    """P(x) = <x|H rho H|x> over Hadamard-basis outcomes (bit 0 records |+>)."""
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    h = np.array([[1.0]])
    for _ in range(n):
        h = np.kron(h, h1)
    return np.real(np.diag(h @ rho @ h))


def total_variation(p_a, p_b) -> float:
    return 0.5 * float(np.sum(np.abs(np.asarray(p_a) - np.asarray(p_b))))


def hermitian_mismatches(data: dict, n: int) -> int:
    """Entries (a, b) -> v of a sparse table whose mirror (b, a) is not exactly conj(v).

    Keys are re-encoded as bytes so the lookups do not depend on how Python
    hashes large integers.
    """
    width = max(1, (n + 7) // 8)
    rekeyed = {ket.to_bytes(width, "little") + bra.to_bytes(width, "little"): v
               for (ket, bra), v in data.items()}
    return sum(1 for (ket, bra), v in data.items()
               if rekeyed.get(bra.to_bytes(width, "little") + ket.to_bytes(width, "little"))
               != v.conjugate())


def prefix_probabilities(data: dict, n: int, bits: int) -> list[float]:
    """Probability of each outcome prefix on the first `bits` qubits, from a table.

    q(x) = 2^-n sum_(a,b) alpha_ab (-1)^(x.(a XOR b)); summing over the other
    qubits keeps only parities supported on the prefix, so
    S_y = 2^-bits sum over those entries of alpha (-1)^(y.(a XOR b)).
    Normalised by the total mass S_root; index y reads the prefix MSB-first.
    """
    shift = n - bits
    low = (1 << shift) - 1
    sums = [0.0] * (1 << bits)
    for (ket, bra), v in data.items():
        s = ket ^ bra
        if s & low:
            continue
        top = s >> shift
        for y in range(1 << bits):
            sums[y] += -v.real if (y & top).bit_count() & 1 else v.real
    total = sum(sums)
    return [x / total for x in sums]
