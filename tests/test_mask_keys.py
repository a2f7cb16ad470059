"""Bitmask-keyed storage of coefficient tables and Fourier supports.

Past 61 qubits Python's int hash (the value mod 2^61 - 1) maps many bitmasks
to one hash; the tables store each mask as fixed-width bytes instead, while
every read still sees int keys in insertion order.
"""

import numpy as np
import pytest

import iqpdamp.sampler as sampler_module
from iqpdamp.circuit_model import random_circuit
from iqpdamp.fastpath import build_table_auto, g2_low_weight_coefficients
from iqpdamp.hw_basis import HWCoefficientTable, MaskMap, build_table, parse_table
from iqpdamp.sampler import QuasiDistribution, fourier_table, marginal, sample


def distinct_hash_share(mapping):
    stored = list(mapping.raw)
    return len({hash(key) for key in stored}) / len(stored)


def plain_marginal(qd, prefix):
    """The prefix marginal summed over a plain int-keyed dict of the coefficients."""
    k, n = len(prefix), qd.n
    y = int(prefix, 2) if k else 0
    shift = n - k
    suffix_mask = (1 << shift) - 1
    total = 0.0
    for s, c in dict(qd.coeffs).items():
        if s & suffix_mask:
            continue
        total += -c if ((y << shift) & s).bit_count() & 1 else c
    return total / 2.0 ** k


def test_keys_past_61_qubits_hash_apart_and_keep_every_entry():
    n, k = 130, 2
    circuit = random_circuit(n, 12, 0.3, seed=5)
    table = build_table_auto(circuit, k)
    qd = fourier_table(table)
    assert len(table) == 1 + 2 * n + 2 * n * (2 * n - 1) // 2
    assert len(qd.coeffs) == 1 + n + n * (n - 1) // 2
    # int keys put the 8,385 two-bit masks on 1,891 hashes
    assert distinct_hash_share(table.data) >= 0.99
    assert distinct_hash_share(qd.coeffs) >= 0.99

    kets, bras, values = g2_low_weight_coefficients(circuit, k)
    assert dict(table.data) == dict(zip(zip(kets, bras), values.tolist()))

    by_parity = {}
    for (ket, bra), v in table.data.items():
        by_parity[ket ^ bra] = by_parity.get(ket ^ bra, 0.0) + v
    assert set(dict(qd.coeffs)) == set(by_parity)
    for s, c in qd.coeffs.items():
        assert c == by_parity[s].real


def test_plain_dict_assigned_to_table_is_rekeyed():
    n = 70
    top, low = 1 << (n - 1), 1
    t = HWCoefficientTable(n, 2)
    t.data = {(0, 0): 1.0, (top, 0): 0.25 + 0.5j, (0, top): 0.25 - 0.5j,
              (top, low): 0.125j, (low, top): -0.125j, (low, low): 0.0625}
    assert isinstance(t.data, MaskMap)
    assert t.get(top, 0) == 0.25 + 0.5j
    assert t.get(top, top) == 0.0
    qd = fourier_table(t)
    assert qd.coeffs == pytest.approx({0: 1.0625, top: 0.5, top | low: 0.0})


def test_serialize_roundtrip_at_70_qubits():
    t = build_table_auto(random_circuit(70, 8, 0.4, seed=2), 2)
    back = parse_table(t.serialize())
    assert back.n == 70
    assert back.data == t.data
    assert list(back.data.items()) == t.sorted_items()


def test_quasidistribution_rekeys_a_plain_dict():
    n = 80
    coeffs = {0: 1.0, 1 << 79: 0.5, (1 << 79) | (1 << 18): -0.25}
    qd = QuasiDistribution(n, coeffs)
    assert isinstance(qd.coeffs, MaskMap)
    assert qd.coeffs == pytest.approx(coeffs)
    assert qd.total_mass == 1.0
    assert qd.q_tilde(1 << 79) == 0.5 / 2.0 ** n
    assert qd == QuasiDistribution(n, dict(coeffs))


def test_table_queries_on_a_rekeyed_table():
    t = build_table(random_circuit(3, 4, 0.3, seed=7), 3)
    plain = dict(t.data)
    rekeyed = HWCoefficientTable(3, 3)
    rekeyed.data = plain
    assert rekeyed.data == t.data == plain
    worst = max(abs(v - plain.get((bra, ket), 0.0).conjugate()) for (ket, bra), v in plain.items())
    assert rekeyed.hermiticity_defect() == worst
    assert rekeyed.trace() == sum(v for (ket, bra), v in plain.items() if ket == bra)
    dense = np.zeros((8, 8), dtype=complex)
    for (ket, bra), v in plain.items():
        dense[ket, bra] += v
    assert np.array_equal(rekeyed.to_dense(), dense)
    assert rekeyed.sorted_items() == sorted(
        plain.items(), key=lambda kv: (kv[0][0].bit_count() + kv[0][1].bit_count(), *kv[0]))


def test_insertion_order_keeps_marginals_and_draws(monkeypatch):
    table = build_table_auto(random_circuit(12, 14, 0.4, seed=3), 2)
    assert list(table.data) == list(dict(table.data))
    qd = fourier_table(table)
    reference = {}
    for (ket, bra), v in table.data.items():
        reference[ket ^ bra] = reference.get(ket ^ bra, 0.0) + v
    assert list(qd.coeffs.items()) == [(s, v.real) for s, v in reference.items()]
    for prefix in ("", "0", "1", "01", "110", "1011001", "010011100101"):
        assert marginal(qd, prefix) == plain_marginal(qd, prefix)
    draws = sample(qd, 40, seed=11)
    monkeypatch.setattr(sampler_module, "marginal", plain_marginal)
    assert sample(qd, 40, seed=11) == draws


def test_mask_map_reads_and_edits():
    m = MaskMap(9, pairs=False, entries={0b100000001: 1.5, 3: 2.0})
    assert m.width == 2
    assert list(m) == [0b100000001, 3] and len(m) == 2
    assert m[3] == 2.0 and 3 in m and 4 not in m
    assert m.get(-1, "absent") == "absent" and m.get("x", "absent") == "absent"
    m[4] = 1.0
    del m[3]
    assert list(m.items()) == [(0b100000001, 1.5), (4, 1.0)]
    assert m.int_items() == [(0b100000001, 1.5), (4, 1.0)]
    m[4] = 2.0
    assert m.int_items() == [(0b100000001, 1.5), (4, 2.0)]
    with pytest.raises(KeyError):
        del m[3]
    assert m == {4: 2.0, 0b100000001: 1.5} and m != {4: 2.0}
    pairs = MaskMap(9, pairs=True, entries={(1, 2): 1j})
    assert pairs[(1, 2)] == 1j and (2, 1) not in pairs and 5 not in pairs
