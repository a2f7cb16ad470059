import math

import numpy as np
import pytest

from iqpdamp import hw_basis
from iqpdamp.bounds import coefficient_bound, table_size_bound
from iqpdamp.circuit_model import idle_circuit, random_circuit
from iqpdamp.dense_oracle import evolve_dense
from iqpdamp.frame_engine import propagate
from iqpdamp.hw_basis import (
    HWCoefficientTable,
    HWIndex,
    build_table,
    count_weight_h_with_r_zeroblocks,
    parse_table,
    zero_block_range,
)


def all_indices(n):
    for ket in range(1 << n):
        for bra in range(1 << n):
            yield HWIndex(n, ket, bra)


def test_hwindex_fields():
    idx = HWIndex(4, 0b1010, 0b0011)
    assert idx.weight == 4
    assert idx.zero_blocks == 1  # only qubit position 1 has both bits 0
    assert idx.bitstrings() == ("1010", "0011")


def test_zero_block_range_values():
    assert zero_block_range(0, 4) == (4, 4)
    assert zero_block_range(2, 2) == (1, 0)
    assert zero_block_range(5, 4) == (1, 0)
    assert zero_block_range(8, 4) == (0, 0)
    with pytest.raises(ValueError):
        zero_block_range(9, 4)
    with pytest.raises(ValueError):
        zero_block_range(-1, 4)


def test_zero_block_range_matches_enumeration():
    for n in (1, 2, 3, 4):
        by_weight = {}
        for idx in all_indices(n):
            by_weight.setdefault(idx.weight, []).append(idx.zero_blocks)
        for h, blocks in by_weight.items():
            assert zero_block_range(h, n) == (max(blocks), min(blocks))


def test_count_values():
    assert count_weight_h_with_r_zeroblocks(2, 2, 3) == 3
    assert count_weight_h_with_r_zeroblocks(3, 0, 2) == 4
    with pytest.raises(ValueError):
        count_weight_h_with_r_zeroblocks(2, 0, 3)  # below the feasible range


def test_count_sums_to_binomial():
    for n in range(1, 6):
        for h in range(2 * n + 1):
            mu, lo = zero_block_range(h, n)
            total = sum(count_weight_h_with_r_zeroblocks(h, r, n)
                        for r in range(lo, mu + 1))
            assert total == math.comb(2 * n, h)


def test_count_matches_enumeration():
    for n in (2, 3, 4):
        tally = {}
        for idx in all_indices(n):
            key = (idx.weight, idx.zero_blocks)
            tally[key] = tally.get(key, 0) + 1
        for (h, r), count in tally.items():
            assert count_weight_h_with_r_zeroblocks(h, r, n) == count


def test_table_add_get_and_cutoff():
    t = HWCoefficientTable(3, 2)
    t.add(0b100, 0b000, 0.5 + 0.25j)
    t.add(0b100, 0b000, 0.5j)
    assert t.get(0b100, 0b000) == 0.5 + 0.75j
    assert t.get(0b000, 0b100) == 0.0
    assert len(t) == 1
    with pytest.raises(ValueError):
        t.add(0b110, 0b100, 1.0)  # weight 3 > cutoff 2
    for ket, bra in ((0b1000, 0), (0, 0b1000), (-1, 0), (0, -4), (1 << 8, 1)):
        with pytest.raises(ValueError, match="masks must lie in"):
            t.add(ket, bra, 0.5)
    assert len(t) == 1
    t.add(0b011, 0, 0.5)
    assert parse_table(t.serialize()).data == t.data
    with pytest.raises(ValueError):
        HWCoefficientTable(2, 5)


def test_table_size_never_exceeds_max_size():
    for seed in range(4):
        c = random_circuit(4, 5, 0.3, seed=seed)
        for cutoff in (0, 2, 4, 8):
            t = build_table(c, cutoff)
            assert len(t) <= table_size_bound(4, cutoff)
            assert table_size_bound(4, cutoff) == sum(math.comb(8, m) for m in range(cutoff + 1))


def test_idle_weight_zero_entry():
    for p in (0.1, 0.5):
        for d in (1, 4, 9):
            t = build_table(idle_circuit(1, d, p), 0)
            assert len(t) == 1
            expected = (2.0 - (1.0 - p) ** d) / 2.0
            assert t.get(0, 0) == pytest.approx(expected, rel=1e-13)


def test_weight_zero_entry_matches_dense_corner():
    for n, seed in ((3, 0), (5, 1)):
        c = random_circuit(n, 6, 0.35, seed=seed)
        t = build_table(c, 0)
        corner = evolve_dense(c).rho[0, 0]
        assert t.get(0, 0) == pytest.approx(corner, abs=1e-12)


def test_full_cutoff_table_matches_dense():
    cases = [random_circuit(3, 6, 0.2, seed=2),
             random_circuit(4, 4, 0.45, locality=3, seed=3)]
    for c in cases:
        t = build_table(c, 2 * c.n)
        dense = evolve_dense(c).rho
        assert np.max(np.abs(t.to_dense() - dense)) < 1e-10
        assert t.trace() == pytest.approx(np.trace(dense))


def test_full_damping_collapses_to_ground_entry():
    c = random_circuit(3, 2, 1.0, seed=5)
    t = build_table(c, 6)
    dense = t.to_dense()
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = 1.0
    assert np.max(np.abs(dense - expected)) < 1e-12


def test_mirrored_table_is_exactly_hermitian():
    for seed in range(5):
        c = random_circuit(4, 5, 0.3, locality=3 if seed % 2 else 2, seed=seed)
        t = build_table(c, 4)
        assert t.hermiticity_defect() == 0.0


def test_mirror_flag_changes_nothing_numerically():
    c = random_circuit(4, 6, 0.25, seed=7)
    a = build_table(c, 4, mirror=True)
    b = build_table(c, 4, mirror=False)
    assert set(a.data) == set(b.data)
    for key, v in a.data.items():
        assert v == pytest.approx(b.data[key], abs=1e-13)


def test_entries_respect_decay_bound():
    for seed in range(6):
        c = random_circuit(4, 6, 0.3, locality=3 if seed % 2 else 2, seed=seed)
        t = build_table(c, 8)
        for (ket, bra), v in t.data.items():
            idx = HWIndex(4, ket, bra)
            cap = coefficient_bound(idx.weight, idx.zero_blocks, c.d, c.p, c.n)
            assert abs(v) <= cap + 1e-15


def test_idle_saturates_decay_bound():
    c = idle_circuit(3, 7, 0.25)
    t = build_table(c, 6)
    for (ket, bra), v in t.data.items():
        idx = HWIndex(3, ket, bra)
        cap = coefficient_bound(idx.weight, idx.zero_blocks, c.d, c.p, c.n)
        assert abs(v) == pytest.approx(cap, rel=1e-12)


def test_serialize_golden_and_roundtrip():
    t = HWCoefficientTable(2, 2)
    t.add(0b00, 0b00, 0.5)
    t.add(0b10, 0b00, 0.25 - 0.125j)
    t.add(0b00, 0b10, 0.25 + 0.125j)
    t.add(0b01, 0b01, 0.0625)
    expected = ("00 00 0.5 0\n"
                "00 10 0.25 0.125\n"
                "10 00 0.25 -0.125\n"
                "01 01 0.0625 0\n")
    assert t.serialize() == expected
    back = parse_table(expected)
    assert back.n == 2
    assert back.data == t.data


def test_serialize_roundtrip_random():
    c = random_circuit(4, 5, 0.3, seed=11)
    t = build_table(c, 3)
    back = parse_table(t.serialize())
    assert back.n == t.n
    assert set(back.data) == set(t.data)
    for key, v in t.data.items():
        assert back.data[key] == pytest.approx(v, rel=1e-15, abs=1e-300)


def test_parse_table_accepts_comments_and_rejects_garbage():
    text = "# header\n\n00 00 1 0\n"
    t = parse_table(text)
    assert t.get(0, 0) == 1.0
    with pytest.raises(ValueError, match="line 2"):
        parse_table("00 00 1 0\n00 00 1\n")
    with pytest.raises(ValueError, match="width"):
        parse_table("00 00 1 0\n010 000 1 0\n")
    with pytest.raises(ValueError, match="empty"):
        parse_table("# nothing\n")
    # float() accepts these, but serialize never writes them
    for values in ("1_0 0", "0 nan", "inf 0", "0 -Infinity", "1e400 0"):
        with pytest.raises(ValueError, match="line 2: values must be finite decimal numbers"):
            parse_table(f"00 00 1 0\n01 00 {values}\n")


@pytest.mark.parametrize("text", ["0b1 000 1 0\n", "+01 1_0 1 0\n", "0\u0661 00 1 0\n",
                                  "00 00 1 0\n01 1x 1 0\n"])
def test_parse_table_rejects_non_binary_digits(text):
    line = text.count("\n")
    with pytest.raises(ValueError, match=f"line {line}: bit strings must consist of 0s and 1s"):
        parse_table(text)


def test_parse_table_rejects_repeated_index():
    with pytest.raises(ValueError, match="line 3: repeated entry 01 10"):
        parse_table("01 10 1 0\n00 00 1 0\n01 10 2 0\n")


def test_hard_three_local_layout_stays_small(monkeypatch):
    # unmerged propagation makes 393,686 branches for this table
    circuit = random_circuit(7, 6, 0.9, locality=3, seed=3)
    counts = []

    def counting(s, c):
        branches = propagate(s, c)
        counts.append(len(branches))
        return branches

    monkeypatch.setattr(hw_basis, "propagate", counting)
    table = build_table(circuit, 2)
    assert sum(counts) == 4884
    assert len(counts) == 50
    rho = evolve_dense(circuit).rho
    assert len(table) == 106
    for (ket, bra), v in table.data.items():
        assert abs(v - rho[ket, bra]) < 1e-10
