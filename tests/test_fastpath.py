import math
import tracemalloc

import numpy as np
import pytest

from helpers import closed_form_columns, gathered_g2_components, position_mask
from iqpdamp.circuit_model import CPHASE, RZ, Circuit, Gate, idle_circuit, random_circuit
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


def edge_circuits(p):
    """Inputs with no gated pair, or with partner runs of length 1, or one pair gated repeatedly."""
    first, again = Gate(CPHASE, (0, 2), 0.7), Gate(CPHASE, (2, 0), 1.9)
    return [
        random_circuit(1, 3, p, seed=1),
        random_circuit(2, 3, p, seed=2),
        idle_circuit(4, 3, p),
        Circuit(3, 2, p, ((Gate(RZ, (0,), 0.4), Gate(RZ, (2,), 1.3)), (Gate(RZ, (1,), 2.2),))),
        Circuit(3, 3, p, ((first,), (), (again, Gate(RZ, (1,), 0.5)))),
        # not validated: one pair gated twice in one layer
        Circuit(3, 2, p, ((first, again), (Gate(CPHASE, (0, 1), 0.3),))),
    ]


def test_matches_general_path_on_grid():
    circuits = [random_circuit(n, d, p, seed=n * 100 + d)
                for n in (4, 5, 6) for d in (3, 7) for p in (0.15, 0.5, 0.9, 1.0)]
    circuits += [c for p in (0.15, 0.5, 0.9, 1.0) for c in edge_circuits(p)]
    for c in circuits:
        for k in (0, 1, 2):
            fast, slow = g2_low_weight_table(c, k), build_table(c, k)
            assert tables_agree(fast, slow), (c.n, c.d, c.p, k, c.layers)


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
    for ket, bra, v in zip(kets.tolist(), bras.tolist(), values):
        assert ket == sorted(ket) and bra == sorted(bra)
        assert t.get(position_mask(c.n, ket), position_mask(c.n, bra)) == v


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


@pytest.mark.parametrize("n, d, p", [(130, 12, 0.3), (600, 45, 0.5)])
def test_gram_products_match_the_gathered_reference(n, d, p):
    circuit = random_circuit(n, d, p, seed=5)
    kets, bras, values = g2_low_weight_coefficients(circuit, 2)
    ref_kets, ref_bras, expected = closed_form_columns(n, gathered_g2_components(circuit))
    assert np.array_equal(kets, ref_kets) and np.array_equal(bras, ref_bras)
    assert values.dtype == expected.dtype
    # only the shared-partner sums run in another order: the weight-2 off-diagonal values
    moved = ((kets < n).sum(axis=1) + (bras < n).sum(axis=1) == 2) & (kets != bras).any(axis=1)
    np.testing.assert_allclose(values[moved], expected[moved], rtol=1e-12, atol=0)
    assert values[~moved].tobytes() == expected[~moved].tobytes()


@pytest.mark.parametrize("n, d, seed", [(5, 16, 0), (7, 20, 1), (8, 24, 2)])
def test_matches_general_path_relatively_on_dense_partner_graphs(n, d, seed):
    for p in (0.1, 0.5, 0.9):
        c = random_circuit(n, d, p, seed=seed)
        partners = [set() for _ in range(n)]
        for _, g in c.gates():
            if g.locality == 2:
                partners[g.targets[0]].add(g.targets[1])
                partners[g.targets[1]].add(g.targets[0])
        assert min(map(len, partners)) >= 2  # every qubit's pairs take a shared-partner term
        fast, slow = g2_low_weight_table(c, 2), build_table(c, 2)
        assert set(fast.data) == set(slow.data)
        for key, v in slow.data.items():
            assert abs(fast.data[key] - v) <= 1e-12 * abs(v), (p, key)


def test_coefficients_peak_memory_at_scale():
    # the shared-partner products once gathered two 106 MB row copies at this size
    circuit = random_circuit(600, 45, 0.5, seed=1)
    tracemalloc.start()
    try:
        g2_low_weight_coefficients(circuit, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_rejects_wide_gates_at_every_cutoff():
    c3 = random_circuit(5, 4, 0.2, locality=3, seed=1)
    for k in (0, 1):
        with pytest.raises(ValueError, match="1- and 2-local gates only"):
            g2_low_weight_table(c3, k)
