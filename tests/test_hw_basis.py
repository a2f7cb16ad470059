import math
import re
import tracemalloc

import numpy as np
import pytest

from helpers import decoded_rows
from iqpdamp import hw_basis
from iqpdamp.bounds import coefficient_bound, table_size_bound
from iqpdamp.circuit_model import idle_circuit, random_circuit
from iqpdamp.dense_oracle import evolve_dense
from iqpdamp.fastpath import build_table_auto, fast_applicable, g2_low_weight_table
from iqpdamp.frame_engine import propagate
from iqpdamp.hw_basis import (
    HWCoefficientTable,
    HWIndex,
    build_table,
    count_weight_h_with_r_zeroblocks,
    parse_table,
    zero_block_range,
)
from iqpdamp.sampler import QuasiDistribution


def all_indices(n):
    for ket in range(1 << n):
        for bra in range(1 << n):
            yield HWIndex(n, ket, bra)


def test_hwindex_fields():
    idx = HWIndex(4, 0b1010, 0b0011)
    assert idx.weight == 4
    assert idx.zero_blocks == 1  # only qubit position 1 has both bits 0


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


def test_table_setter_get_and_cutoff():
    t = HWCoefficientTable(3, 2)
    t.data = {(0b100, 0b000): 0.5 + 0.75j}
    assert t.get(0b100, 0b000) == 0.5 + 0.75j
    assert t.get(0b000, 0b100) == 0.0
    assert len(t) == 1
    with pytest.raises(ValueError, match="above the cutoff 2"):
        t.data = {(0b110, 0b100): 1.0}  # weight 3 > cutoff 2
    for ket, bra in ((0b1000, 0), (0, 0b1000), (-1, 0), (0, -4), (1 << 8, 1)):
        with pytest.raises(ValueError, match="masks must lie in"):
            t.data = {(ket, bra): 0.5}
    assert len(t) == 1
    t.data = {**t.data, (0b011, 0): 0.5}
    assert parse_table("".join(t.serialize())).data == t.data
    with pytest.raises(ValueError):
        HWCoefficientTable(2, 5)


def test_outside_keys_are_checked_where_they_enter():
    t = HWCoefficientTable(3, 2)
    with pytest.raises(ValueError, match=r"masks must lie in \[0, 2\^3\), got 8"):
        t.data = {(8, 0): 1.0}
    with pytest.raises(ValueError, match="above the cutoff 2"):
        t.data = {(7, 7): 2.0}
    with pytest.raises(ValueError, match=r"masks must lie in \[0, 2\^3\), got 16"):
        QuasiDistribution(3, {16: 0.5})
    for key in (5, (1, 2, 3), "ab"):
        with pytest.raises(ValueError, match=re.escape(f"(ket, bra) pairs of masks, got {key!r}")):
            t.data = {key: 1.0}
    for value in (complex("nan"), complex(0.0, math.inf), -math.inf):
        with pytest.raises(ValueError, match=r"entry \(0, 0\) has a non-finite value"):
            t.data = {(1, 1): 1.0, (0, 0): value}
    for value in (float("nan"), math.inf):
        with pytest.raises(ValueError, match="entry 2 has a non-finite value"):
            QuasiDistribution(2, {0: 1.0, 2: value})
    assert len(t) == 0


def test_serialize_streams_its_lines(tmp_path):
    table = build_table_auto(random_circuit(200, 30, 0.5, seed=0), 2)
    path = tmp_path / "table.txt"
    tracemalloc.start()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(table.serialize())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 35_000_000  # 80,201 lines of two 200-bit strings and two values
    assert peak < size / 8


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


def test_mirrored_columns_drops_zeros_and_puts_each_mirror_next():
    rows = np.array([[3, 3, 3, 3], [0, 3, 3, 3], [1, 3, 1, 3], [0, 1, 2, 3], [2, 3, 3, 3]],
                    dtype=hw_basis.POSITION)
    vals = np.array([0.5, 0.25, 0.0, 1.0 - 2.0j, 0.0])
    got_rows, got_vals = hw_basis.mirrored_columns(rows, vals)
    # a mirror's row is its entry's row with the ket and bra halves swapped
    assert got_rows.tolist() == [[3, 3, 3, 3], [0, 3, 3, 3], [3, 3, 0, 3], [0, 1, 2, 3],
                                 [2, 3, 0, 1]]
    # repr tells +0j from -0j: a real entry's mirror is +0.0j
    assert repr(got_vals.tolist()) == repr([0.5 + 0j, 0.25 + 0j, 0.25 + 0j, 1 - 2j, 1 + 2j])
    assert got_rows.dtype == hw_basis.POSITION


@pytest.mark.parametrize("circuit,k", [
    (idle_circuit(5, 8, 0.3), 1),
    (idle_circuit(5, 8, 0.3), 2),
    (random_circuit(5, 6, 0.4, seed=3), 2),
    (random_circuit(5, 5, 0.3, locality=3, seed=4), 4),
])
def test_every_builder_puts_each_mirror_right_after_its_entry(circuit, k):
    builders = [build_table, g2_low_weight_table] if fast_applicable(circuit, k) else [build_table]
    for build in builders:
        table = build(circuit, k)
        entries = list(table.data.items())
        # the data setter and parse_table lay out the same key rows as the builder
        rekeyed = HWCoefficientTable(circuit.n, k)
        rekeyed.data = dict(entries)
        parsed = parse_table("".join(table.serialize()))
        assert decoded_rows(rekeyed.data) == decoded_rows(parsed.data) == decoded_rows(table.data)
        assert all(v != 0 for _, v in entries)
        at = 0
        while at < len(entries):
            (ket, bra), v = entries[at]
            if ket != bra:
                at += 1
                assert entries[at][0] == (bra, ket)
                assert repr(entries[at][1]) == repr(0.0 + v.conjugate())
            at += 1


def test_truncated_3local_table_matches_dense_entry_by_entry():
    # below full weight, mirrored entries included: every index of weight <= 4
    for n, seed in ((5, 4), (6, 7)):
        c = random_circuit(n, 5, 0.3, locality=3, seed=seed)
        t = build_table(c, 4)
        pop = np.bitwise_count(np.arange(1 << n))
        within = (pop[:, None] + pop[None, :]) <= 4
        assert len(t) == np.count_nonzero(within)
        rho = evolve_dense(c).rho
        assert np.abs(t.to_dense() - np.where(within, rho, 0.0)).max() <= 1e-12


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
    t.data = {(0b00, 0b00): 0.5, (0b10, 0b00): 0.25 - 0.125j, (0b00, 0b10): 0.25 + 0.125j,
              (0b01, 0b01): 0.0625}
    expected = ("00 00 0.5 0\n"
                "00 10 0.25 0.125\n"
                "10 00 0.25 -0.125\n"
                "01 01 0.0625 0\n")
    assert "".join(t.serialize()) == expected
    back = parse_table(expected)
    assert back.n == 2
    assert back.data == t.data


def test_serialize_roundtrip_random():
    c = random_circuit(4, 5, 0.3, seed=11)
    t = build_table(c, 3)
    back = parse_table("".join(t.serialize()))
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


@pytest.mark.parametrize("ket", ["100", "110", "111"])  # rows 1, 2 and 3 positions wide
def test_parse_table_finds_repeats_at_every_row_width(ket):
    text = f"{ket} 000 1 0\n000 000 1 0\n000 {ket} 1 0\n"
    table = parse_table(text)
    assert table.cutoff == ket.count("1") and len(table) == 3
    with pytest.raises(ValueError, match=f"line 5: repeated entry {ket} 000"):
        parse_table(text + f"# comment\n  {ket}\t000 2 0\n")


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
