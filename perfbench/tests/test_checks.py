"""The benchmark's reference computations against brute force at n <= 4.

Brute force here means explicit 2^n x 2^n matrices: the gate unitary built
basis state by basis state, and the damping channel applied through full
Kronecker-product Kraus operators.

    python3 -m pytest perfbench/tests
"""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402


def random_layers(rng, n, d, max_locality):
    layers = []
    for _ in range(d):
        order = list(rng.permutation(n))
        layer = []
        while order:
            size = int(rng.integers(1, min(max_locality, len(order)) + 1))
            block, order = order[:size], order[size:]
            kind = "rz" if size == 1 else "cphase"
            layer.append((kind, tuple(int(q) for q in block), float(rng.uniform(0, 2 * math.pi))))
        layers.append(layer)
    return layers


def brute_force_state(n, p, layers):
    dim = 1 << n
    plus = np.full(dim, 1.0 / math.sqrt(dim))
    rho = np.outer(plus, plus).astype(complex)
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]])
    k1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]])

    def on_qubit(op, q):
        full = np.array([[1.0]])
        for t in range(n):
            full = np.kron(full, op if t == q else np.eye(2))
        return full

    for layer in layers:
        phases = np.ones(dim, dtype=complex)
        for z in range(dim):
            bit = [(z >> (n - 1 - q)) & 1 for q in range(n)]
            for kind, targets, theta in layer:
                if kind == "rz":
                    phases[z] *= np.exp(1j * theta * (1 - 2 * bit[targets[0]]))
                elif all(bit[t] for t in targets):
                    phases[z] *= np.exp(1j * theta)
        u = np.diag(phases)
        rho = u @ rho @ u.conj().T
        for q in range(n):
            a, b = on_qubit(k0, q), on_qubit(k1, q)
            rho = a @ rho @ a.T + b @ rho @ b.T
    return rho


CASES = [(n, d, p, loc, seed) for n, d, p, loc, seed in
         [(1, 3, 0.3, 1, 0), (2, 2, 0.5, 2, 1), (3, 3, 0.9, 3, 2), (4, 2, 0.25, 3, 3),
          (4, 3, 0.6, 2, 4)]]


@pytest.mark.parametrize("n,d,p,loc,seed", CASES)
def test_dense_state_matches_kraus_brute_force(n, d, p, loc, seed):
    layers = random_layers(np.random.default_rng(seed), n, d, loc)
    np.testing.assert_allclose(checks.dense_state(n, p, layers),
                               brute_force_state(n, p, layers), atol=1e-13)


@pytest.mark.parametrize("n,d,p,loc,seed", CASES)
def test_diagonal_closed_form_holds_for_any_diagonal_circuit(n, d, p, loc, seed):
    rho = brute_force_state(n, p, random_layers(np.random.default_rng(seed), n, d, loc))
    for a in range(1 << n):
        assert rho[a, a].real == pytest.approx(checks.diagonal_value(n, d, p, a.bit_count()),
                                               rel=1e-12)


@pytest.mark.parametrize("n,d,p", [(1, 2, 0.4), (3, 4, 0.1), (4, 5, 0.3), (4, 1, 0.9)])
def test_idle_tail_is_the_squared_mass_above_each_cutoff(n, d, p):
    rho = brute_force_state(n, p, [[] for _ in range(d)])
    kmax = 2 * n
    want = [sum(abs(rho[a, b]) ** 2 for a in range(1 << n) for b in range(1 << n)
                if a.bit_count() + b.bit_count() > k) for k in range(kmax + 1)]
    np.testing.assert_allclose(checks.idle_hs_tail(n, d, p, kmax), want, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_and_support_counts_by_enumeration(n):
    pairs = list(itertools.product(range(1 << n), repeat=2))
    for k in range(2 * n + 1):
        kept = [(a, b) for a, b in pairs if a.bit_count() + b.bit_count() <= k]
        assert checks.table_size(n, k) == len(kept)
        assert checks.fourier_support_size(n, k) == len({a ^ b for a, b in kept})


@pytest.mark.parametrize("n,d,p,loc,seed", CASES)
def test_truncated_trace_sums_the_kept_diagonal(n, d, p, loc, seed):
    rho = brute_force_state(n, p, random_layers(np.random.default_rng(seed), n, d, loc))
    for k in range(2 * n + 1):
        want = sum(rho[a, a].real for a in range(1 << n) if 2 * a.bit_count() <= k)
        assert checks.truncated_trace(n, d, p, k) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n,d,p,loc,seed", CASES)
def test_born_distribution_reads_the_hadamard_basis(n, d, p, loc, seed):
    rho = brute_force_state(n, p, random_layers(np.random.default_rng(seed), n, d, loc))
    plus, minus = np.array([1.0, 1.0]) / math.sqrt(2), np.array([1.0, -1.0]) / math.sqrt(2)
    want = []
    for x in range(1 << n):
        vec = np.array([1.0])
        for q in range(n):
            vec = np.kron(vec, minus if (x >> (n - 1 - q)) & 1 else plus)
        want.append((vec @ rho @ vec).real)
    np.testing.assert_allclose(checks.born_distribution(rho, n), want, atol=1e-14)


@pytest.mark.parametrize("n,d,p,loc,seed", CASES[1:])
def test_prefix_probabilities_marginalise_the_born_distribution(n, d, p, loc, seed):
    rho = brute_force_state(n, p, random_layers(np.random.default_rng(seed), n, d, loc))
    data = {(a, b): complex(rho[a, b]) for a in range(1 << n) for b in range(1 << n)}
    born = checks.born_distribution(rho, n)
    for bits in range(1, n + 1):
        want = [sum(born[x] for x in range(1 << n) if x >> (n - bits) == y)
                for y in range(1 << bits)]
        np.testing.assert_allclose(checks.prefix_probabilities(data, n, bits), want, atol=1e-13)


def test_hermitian_mismatches_counts_both_sides_of_a_broken_pair():
    rho = brute_force_state(3, 0.4, random_layers(np.random.default_rng(7), 3, 2, 3))
    data = {(a, b): complex(rho[a, b]) for a in range(8) for b in range(8)}
    for (a, b), v in data.items():  # make the mirrors exact, as a table must be
        if a < b:
            data[(b, a)] = v.conjugate()
        elif a == b:
            data[(a, b)] = complex(v.real, 0.0)
    assert checks.hermitian_mismatches(data, 3) == 0
    data[(1, 6)] += 1e-15
    assert checks.hermitian_mismatches(data, 3) == 2
    del data[(6, 1)]
    assert checks.hermitian_mismatches(data, 3) == 1


def test_hermitian_mismatches_on_masks_wider_than_a_machine_word():
    n = 130
    ket, bra = 1 << 129, 1 << 3
    data = {(ket, bra): 0.5 + 0.25j, (bra, ket): 0.5 - 0.25j, (0, 0): 1.0 + 0.0j}
    assert checks.hermitian_mismatches(data, n) == 0
    data[(bra, ket)] = 0.5 + 0.25j
    assert checks.hermitian_mismatches(data, n) == 2


def test_total_variation():
    assert checks.total_variation([0.5, 0.5, 0.0], [0.25, 0.25, 0.5]) == pytest.approx(0.5)
