import math

import numpy as np
import pytest

from iqpdamp.circuit_model import Circuit, Gate, idle_circuit, random_circuit
from iqpdamp.fastpath import (
    build_table_auto,
    fast_applicable,
    g2_low_weight_coefficients,
    g2_low_weight_table,
)
from iqpdamp.hw_basis import build_table


def tables_agree(a, b, tol=1e-12):
    keys = set(a.data) | set(b.data)
    return max(abs(a.get(*k) - b.get(*k)) for k in keys) < tol


def test_matches_general_path_on_grid():
    for n in (4, 5, 6):
        for d in (3, 7):
            for p in (0.15, 0.5, 0.9, 1.0):
                c = random_circuit(n, d, p, seed=n * 100 + d)
                slow = {k: build_table(c, k) for k in (0, 1, 2)}
                for k in (0, 1, 2):
                    fast = g2_low_weight_table(c, k)
                    assert tables_agree(fast, slow[k]), (n, d, p, k)


def test_both_builders_leave_out_exactly_zero_entries():
    # at p = 1 every weight-2 diagonal is exactly 0, and neither table holds one
    for seed in range(3):
        c = random_circuit(4, 3, 1.0, seed=seed)
        for k in (0, 1, 2):
            slow, fast = build_table(c, k), g2_low_weight_table(c, k)
            assert set(slow.data) == set(fast.data) == {(0, 0)}
            assert tables_agree(slow, fast)


def test_idle_closed_forms():
    n, d, p = 5, 8, 0.3
    shrink = (1 - p) ** d
    w_bg = 2.0 - shrink
    t = g2_low_weight_table(idle_circuit(n, d, p), 2)
    a00 = (w_bg / 2.0) ** n
    assert t.get(0, 0) == pytest.approx(a00, rel=1e-13)
    for q in range(n):
        bit = 1 << (n - 1 - q)
        assert t.get(bit, bit) == pytest.approx(a00 * shrink / w_bg, rel=1e-13)
        assert t.get(bit, 0) == pytest.approx(
            (1 - p) ** (d / 2) * w_bg ** (n - 1) / 2 ** n, rel=1e-13)
        for r in range(q + 1, n):
            other = 1 << (n - 1 - r)
            assert t.get(bit, other) == pytest.approx(
                shrink * w_bg ** (n - 2) / 2 ** n, rel=1e-13)


def test_columnar_and_table_forms_agree():
    c = random_circuit(7, 9, 0.4, seed=2)
    kets, bras, values = g2_low_weight_coefficients(c, 2)
    t = g2_low_weight_table(c, 2)
    assert len(kets) == len(bras) == len(values) == len(t)

    def mask(row):  # qubit positions padded with n -> bitmask, qubit 0 on top
        return sum(1 << (c.n - 1 - q) for q in row if q < c.n)

    for ket, bra, v in zip(kets.tolist(), bras.tolist(), values):
        assert ket == sorted(ket) and bra == sorted(bra)
        assert t.get(mask(ket), mask(bra)) == v


def test_hermitian_and_sized_like_general_table():
    c = random_circuit(6, 5, 0.25, seed=3)
    t = g2_low_weight_table(c, 2)
    assert t.hermiticity_defect() < 1e-14
    assert len(t) == len(build_table(c, 2))


def test_rejects_unsupported_inputs():
    c2 = random_circuit(4, 3, 0.2, seed=1)
    with pytest.raises(ValueError, match="cutoff"):
        g2_low_weight_table(c2, 3)
    c3 = random_circuit(5, 4, 0.2, locality=3, seed=1)
    with pytest.raises(ValueError, match="local"):
        g2_low_weight_table(c3, 2)
    for p in (math.nan, 0.0, 1.5):  # as the general path's damping layer refuses them
        bad_p = Circuit(3, 2, p, ((Gate("cphase", (0, 1), 0.3),), ()))
        assert fast_applicable(bad_p, 2)
        for builder in (build_table, g2_low_weight_table):
            with pytest.raises(ValueError, match=r"p must lie in \(0,1\]"):
                builder(bad_p, 2)


def test_fast_applicable_predicate():
    c2 = random_circuit(4, 3, 0.2, seed=1)
    c3 = random_circuit(5, 4, 0.2, locality=3, seed=1)
    assert fast_applicable(c2, 2)
    assert fast_applicable(c2, 0)
    assert not fast_applicable(c2, 3)
    assert not fast_applicable(c3, 2)


def test_build_table_auto_dispatch():
    c2 = random_circuit(4, 6, 0.3, seed=4)
    c3 = random_circuit(4, 6, 0.3, locality=3, seed=4)
    assert tables_agree(build_table_auto(c2, 2), build_table(c2, 2))
    assert tables_agree(build_table_auto(c2, 4), build_table(c2, 4))
    assert tables_agree(build_table_auto(c3, 2), build_table(c3, 2))


def test_full_damping_degenerate_case():
    c = random_circuit(5, 4, 1.0, seed=6)
    t = g2_low_weight_table(c, 2)
    ref = build_table(c, 2)
    assert tables_agree(t, ref)
    assert t.get(0, 0) == pytest.approx(1.0)


def test_medium_size_smoke():
    c = random_circuit(30, 10, 0.2, seed=8)
    fast = g2_low_weight_table(c, 2)
    slow = build_table(c, 2)
    assert tables_agree(fast, slow, tol=1e-11)
