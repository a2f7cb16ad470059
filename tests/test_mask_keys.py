"""Position-column storage of coefficient tables and Fourier supports.

Tables and supports keep each mask as its ascending qubit positions, padded
with n, so no int mask is ever hashed; reads go through a read-only view that
sees int keys in entry order.
"""

import numpy as np
import pytest

from helpers import plain_marginal, position_mask
import iqpdamp.sampler as sampler_module
from iqpdamp.circuit_model import random_circuit
from iqpdamp.fastpath import build_table_auto, g2_low_weight_coefficients
from iqpdamp.hw_basis import HWCoefficientTable, MaskView, build_table, parse_table, void_rows
from iqpdamp.sampler import QuasiDistribution, fourier_table, marginal, sample


def reference_entries(circuit, k):
    """The closed-form table as an int-keyed dict, filled entry by entry from its position columns.

    test_fastpath checks the columns of the n = 130 circuit used below against
    the gathered reference in `helpers`.
    """
    n = circuit.n
    rows, values = g2_low_weight_coefficients(circuit, k)
    half = rows.shape[1] // 2
    return {(position_mask(n, row[:half]), position_mask(n, row[half:])): v
            for row, v in zip(rows.tolist(), values.tolist())}


def test_columns_past_61_qubits_match_a_plain_dict_reference():
    n, k = 130, 2
    circuit = random_circuit(n, 12, 0.3, seed=5)
    table = build_table_auto(circuit, k)
    qd = fourier_table(table)
    assert len(table) == 1 + 2 * n + 2 * n * (2 * n - 1) // 2
    assert len(qd.coeffs) == 1 + n + n * (n - 1) // 2

    ref = reference_entries(circuit, k)
    # repr tells -0.0 from 0.0, so keys, order and values must all match bit for bit
    assert repr(list(table.data.items())) == repr(list(ref.items()))
    by_parity = {}
    for (ket, bra), v in ref.items():
        by_parity[ket ^ bra] = by_parity.get(ket ^ bra, 0.0) + v
    assert repr(list(qd.coeffs.items())) == repr([(s, v.real) for s, v in by_parity.items()])
    for prefix in ("", "1", "0110", "1" * 70, "01" * 65):
        assert marginal(qd, prefix) == plain_marginal(qd, prefix)


def test_plain_dict_assigned_to_table_is_rekeyed():
    n = 70
    top, low = 1 << (n - 1), 1
    t = HWCoefficientTable(n, 2)
    t.data = {(0, 0): 1.0, (top, 0): 0.25 + 0.5j, (0, top): 0.25 - 0.5j,
              (top, low): 0.125j, (low, top): -0.125j, (low, low): 0.0625}
    assert isinstance(t.data, MaskView)
    assert t.data.rows.tolist() == [[70, 70, 70, 70], [0, 70, 70, 70], [70, 70, 0, 70],
                                    [0, 70, 69, 70], [69, 70, 0, 70], [69, 70, 69, 70]]
    assert t.get(top, 0) == 0.25 + 0.5j
    assert t.get(top, top) == 0.0
    qd = fourier_table(t)
    assert qd.coeffs == pytest.approx({0: 1.0625, top: 0.5, top | low: 0.0})


def test_serialize_roundtrip_at_70_qubits():
    t = build_table_auto(random_circuit(70, 8, 0.4, seed=2), 2)
    back = parse_table("".join(t.serialize()))
    assert back.n == 70
    assert back.data == t.data
    assert list(back.data.items()) == list(t.sorted_items())


def test_quasidistribution_rekeys_a_plain_dict():
    n = 80
    coeffs = {0: 1.0, 1 << 79: 0.5, (1 << 79) | (1 << 18): -0.25}
    qd = QuasiDistribution(n, coeffs)
    assert isinstance(qd.coeffs, MaskView)
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
    assert list(rekeyed.sorted_items()) == sorted(
        plain.items(), key=lambda kv: (kv[0][0].bit_count() + kv[0][1].bit_count(), *kv[0]))


def test_view_reads_int_keys_and_refuses_edits():
    n = 9
    entries = {(0b100000001, 0): 1.5, (0, 0b100000001): 1.5, (3, 4): 2j, (0, 0): 0.25}
    t = HWCoefficientTable(n, 3)
    t.data = entries
    view = t.data
    assert len(view) == 4 and list(view) == list(entries)
    assert list(view.items()) == list(entries.items())
    assert list(view.values()) == list(entries.values())
    assert view[(3, 4)] == 2j and type(view[(3, 4)]) is complex
    assert (3, 4) in view and (4, 3) not in view and view.get((4, 3)) is None
    for key in ((4, 3), (7, 7), (1 << n, 0), (-1, 0), (0.0, 0), 3, (1, 2, 3), "x"):
        with pytest.raises(KeyError):
            view[key]
        assert view.get(key, "absent") == "absent"
    assert view == entries and view == dict(reversed(entries.items()))
    assert view != {**entries, (3, 4): 1j} and view != {(0, 0): 0.25}
    with pytest.raises(TypeError):
        view[(0, 0)] = 1.0
    with pytest.raises(TypeError):
        del view[(0, 0)]

    qd = QuasiDistribution(n, {0b100000001: 1.5, 3: 2.0})
    assert list(qd.coeffs.items()) == [(0b100000001, 1.5), (3, 2.0)]
    assert qd.coeffs[3] == 2.0 and type(qd.coeffs[3]) is float
    for key in (4, (3, 0), -1, 1 << n):
        with pytest.raises(KeyError):
            qd.coeffs[key]


def test_views_compare_in_bulk_like_dicts(monkeypatch):
    entries = {(0b100000001, 0): 1.5, (0, 0b100000001): 1.5, (3, 4): 2j, (0, 0): 0.0}
    variants = [dict(reversed(entries.items())),
                {**{k: v for k, v in entries.items() if k != (3, 4)}, (4, 3): 2j},
                {**entries, (3, 4): 1j},
                {**entries, (0, 0): -0.0},
                {(0, 0): 0.0}]
    supports = [{0b100000001: 1.5, 3: 2.0, 0: 0.0}, {0: -0.0, 3: 2.0, 0b100000001: 1.5},
                {0b100000001: 1.5, 5: 2.0, 0: 0.0}, {0b100000001: 1.5, 3: 2.5, 0: 0.0}]

    def table(data):
        t = HWCoefficientTable(9, 3)
        t.data = data
        return t.data

    pairs = [(table(entries), table(other), entries, other) for other in variants]
    pairs += [(QuasiDistribution(9, supports[0]).coeffs, QuasiDistribution(9, other).coeffs,
               supports[0], other) for other in supports]

    def no_single_lookups(self, key):
        raise AssertionError("views of the same layout compare without single-key lookups")

    monkeypatch.setattr(MaskView, "__getitem__", no_single_lookups)
    for a, b, da, db in pairs:
        assert (a == b) is (b == a) is (da == db)
    assert [da == db for _, _, da, db in pairs] == [True, False, False, True, False,
                                                     True, True, False, False]
    monkeypatch.undo()
    assert table(entries) == entries and table(entries) != variants[2]


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


@pytest.mark.parametrize("width, key_type", [(1, np.int32), (2, np.int64), (3, np.void)])
def test_row_keys_group_and_locate_rows_as_wholes(width, key_type):
    rows = np.random.default_rng(width).integers(0, 6, size=(300, width), dtype=np.int32)
    keys = void_rows(rows)
    assert keys.dtype.type is key_type and keys.shape == (300,)
    first_seen = {}
    for i, row in enumerate(map(tuple, rows.tolist())):
        first_seen.setdefault(row, i)
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    assert first[group].tolist() == [first_seen[row] for row in map(tuple, rows.tolist())]

    distinct = rows[np.sort(first)]
    view = MaskView(5, 1, distinct, np.arange(len(distinct), dtype=float))
    probe = np.vstack((rows, np.full((1, width), 6, dtype=np.int32)))  # the last row is absent
    at = {row: j for j, row in enumerate(map(tuple, distinct.tolist()))}
    assert view.locate(probe).tolist() == [at.get(row, -1) for row in map(tuple, probe.tolist())]
