import cmath
import math
from itertools import product

import numpy as np
import pytest

from helpers import branch_count_bound, phase_gate_matrix, random_frame_string
from iqpdamp.circuit_model import Circuit, Gate, idle_circuit, random_circuit
from iqpdamp.dense_oracle import apply_damping_dense, evolve_dense
from iqpdamp.frame_engine import (
    DIAG,
    MINUS,
    PLUS,
    FrameString,
    apply_damping_layer,
    apply_single_qubit_rotation,
    initial_strings,
    llocal_branch,
    propagate,
    reconstruct_dense,
)

KINDS = (PLUS, MINUS, DIAG)


def make_string(kinds, args=None, beta=1.0):
    n = len(kinds)
    if args is None:
        args = {q: 1.0 + 0.0j for q, k in enumerate(kinds) if k == DIAG}
    return FrameString(n, tuple(kinds), dict(args), cmath.log(beta))


random_string = random_frame_string


def cphase2(s, q1, q2, theta):
    """The single branch of a two-qubit controlled phase: two-qubit gates never branch."""
    branches = llocal_branch(s, (q1, q2), theta)
    assert len(branches) == 1
    return branches[0]


def rotation_matrix(n, qubit, theta):
    """Dense e^{i theta Z} on one qubit: +theta phase on 0, -theta on 1."""
    dim = 1 << n
    diag = np.ones(dim, dtype=complex)
    for z in range(dim):
        bit = (z >> (n - 1 - qubit)) & 1
        diag[z] = cmath.exp(1j * theta * (1.0 - 2.0 * bit))
    return np.diag(diag)


def test_initial_strings_counts():
    # sum_j 2^j C(n, j)
    assert len(list(initial_strings(3, 0))) == 1
    assert len(list(initial_strings(3, 1))) == 7
    assert len(list(initial_strings(10, 2))) == 201
    assert len(list(initial_strings(4, 4))) == 3 ** 4


def test_initial_strings_order_betas_and_args():
    got = list(initial_strings(2, 2))
    expected_kinds = [
        (DIAG, DIAG),
        (PLUS, DIAG), (MINUS, DIAG), (DIAG, PLUS), (DIAG, MINUS),
        (PLUS, PLUS), (PLUS, MINUS), (MINUS, PLUS), (MINUS, MINUS),
    ]
    assert [s.kinds for s in got] == expected_kinds
    for s in got:
        assert s.beta == pytest.approx(0.25)
        assert all(a == 1.0 for a in s.diag_args.values())
        assert set(s.diag_args) == {q for q in range(2) if s.kinds[q] == DIAG}


def test_initial_strings_sum_to_plus_state():
    n = 3
    rho = reconstruct_dense(initial_strings(n, n), n)
    assert np.max(np.abs(rho - 1.0 / (1 << n))) < 1e-15


def test_initial_strings_bad_max_offdiag():
    with pytest.raises(ValueError):
        list(initial_strings(3, -1))
    with pytest.raises(ValueError):
        list(initial_strings(3, 4))


def test_adjoint_is_matrix_conjugate_transpose():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = random_string(rng, 3)
        adj = s.adjoint()
        assert np.max(np.abs(adj.to_matrix() - s.to_matrix().conj().T)) < 1e-12
        back = adj.adjoint()
        assert back.kinds == s.kinds
        assert back.log_beta == s.log_beta


def test_frame_string_fields_cannot_be_assigned():
    s = make_string((PLUS, DIAG), {1: 0.5 + 0.0j})
    for name in ("n", "kinds", "diag_args", "log_beta"):
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(s, name))


def snapshot(s):
    return s.n, s.kinds, dict(s.diag_args), s.log_beta


def test_steps_leave_their_input_unchanged():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = random_string(rng, 3)
        before = snapshot(s)
        apply_single_qubit_rotation(s, int(rng.integers(3)), rng.uniform(0, 2 * math.pi))
        llocal_branch(s, (0, 1, 2), rng.uniform(0, 2 * math.pi))
        for p in (0.3, 1.0):
            apply_damping_layer(s, p)
        assert snapshot(s) == before

    # branching 3- and 4-local gates, and an argument of -1 that p = 1 zeroes
    for kinds, count in (((PLUS, DIAG, DIAG), 5), ((MINUS, DIAG, DIAG, DIAG), 9)):
        args = {q: complex(-1.0 + 0.3 * q, 0.2) for q in range(1, len(kinds))}
        args[1] = -1.0 + 0.0j
        s = make_string(kinds, args, beta=0.5)
        before = snapshot(s)
        assert len(llocal_branch(s, tuple(range(len(kinds))), 1.3)) == count
        assert apply_damping_layer(s, 1.0).beta == 0.0
        assert snapshot(s) == before


def test_propagate_leaves_its_input_unchanged():
    # initial strings of one position set share their argument dict
    for locality, seed in ((3, 12), (4, 14)):
        circuit = random_circuit(5, 4, 0.35, locality=locality, seed=seed)
        strings = list(initial_strings(5, 3))
        before = [snapshot(s) for s in strings]
        branched = 0
        for s in strings:
            branched += len(propagate(s, circuit)) > 1
        assert branched
        assert [snapshot(s) for s in strings] == before


def test_rotation_leaves_diagonal_slots_alone():
    s = make_string((DIAG, PLUS), {0: 0.3 + 0.1j})
    out = apply_single_qubit_rotation(s, 0, 1.234)
    assert out.kinds == s.kinds
    assert out.log_beta == s.log_beta
    assert out.diag_args == s.diag_args


def test_rotation_quarter_turn_phases():
    s = make_string((PLUS,))
    out = apply_single_qubit_rotation(s, 0, math.pi / 4)
    assert out.beta == pytest.approx(-1j)  # e^{-2i theta} with theta = pi/4
    s = make_string((MINUS,))
    out = apply_single_qubit_rotation(s, 0, math.pi / 4)
    assert out.beta == pytest.approx(1j)


def test_rotation_matches_dense_conjugation():
    rng = np.random.default_rng(11)
    for _ in range(30):
        s = random_string(rng, 2)
        q = int(rng.integers(2))
        theta = rng.uniform(0, 2 * math.pi)
        u = rotation_matrix(2, q, theta)
        expected = u @ s.to_matrix() @ u.conj().T
        got = apply_single_qubit_rotation(s, q, theta).to_matrix()
        assert np.max(np.abs(got - expected)) < 1e-12


def test_rotation_out_of_range():
    s = make_string((PLUS,))
    with pytest.raises(IndexError):
        apply_single_qubit_rotation(s, 1, 0.5)


def test_cphase2_diag_diag_unchanged():
    s = make_string((DIAG, DIAG), {0: 0.4 - 0.2j, 1: -0.9 + 0.1j}, beta=2.0)
    out = cphase2(s, 0, 1, math.pi)
    assert out.kinds == s.kinds
    assert out.log_beta == s.log_beta
    assert out.diag_args == s.diag_args


def test_cphase2_offdiag_diag_rotates_argument():
    theta = math.pi / 3
    s = make_string((PLUS, DIAG), {1: 0.5 + 0.0j})
    out = cphase2(s, 0, 1, theta)
    assert out.log_beta == s.log_beta
    assert out.diag_args[1] == pytest.approx(0.5 * cmath.exp(1j * theta))
    s = make_string((MINUS, DIAG), {1: 0.5 + 0.0j})
    out = cphase2(s, 0, 1, theta)
    assert out.diag_args[1] == pytest.approx(0.5 * cmath.exp(-1j * theta))


def test_cphase2_mixed_signs_unchanged():
    s = make_string((PLUS, MINUS))
    out = cphase2(s, 0, 1, 1.7)
    assert out.kinds == s.kinds
    assert out.log_beta == s.log_beta


def test_cphase2_same_signs_pure_phase():
    theta = 0.9
    out = cphase2(make_string((PLUS, PLUS)), 0, 1, theta)
    assert out.beta == pytest.approx(cmath.exp(1j * theta))
    out = cphase2(make_string((MINUS, MINUS)), 0, 1, theta)
    assert out.beta == pytest.approx(cmath.exp(-1j * theta))


def test_cphase2_matches_dense_for_all_slot_pairs():
    rng = np.random.default_rng(23)
    for k1, k2 in product(KINDS, repeat=2):
        for _ in range(5):
            args = {}
            for q, k in enumerate((k1, k2)):
                if k == DIAG:
                    args[q] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2
            s = make_string((k1, k2), args, beta=complex(rng.normal(), rng.normal()))
            theta = rng.uniform(0, 2 * math.pi)
            u = phase_gate_matrix(2, (0, 1), theta)
            expected = u @ s.to_matrix() @ u.conj().T
            got = cphase2(s, 0, 1, theta).to_matrix()
            assert np.max(np.abs(got - expected)) < 1e-12


def test_cphase2_rejects_equal_targets():
    with pytest.raises(ValueError):
        cphase2(make_string((DIAG, DIAG)), 0, 0, 0.3)


def test_llocal_branch_diag_only_is_single_branch():
    s = make_string((DIAG, DIAG, DIAG), {0: 0.2j, 1: -0.5 + 0j, 2: 0.9 + 0j})
    branches = llocal_branch(s, (0, 1, 2), 2.1)
    assert len(branches) == 1
    assert branches[0].kinds == s.kinds
    assert branches[0].diag_args == s.diag_args


def test_llocal_branch_three_local_counts_and_matrices():
    # one sigma_plus and two diagonal targets: identity branch + 2^2 sign branches
    theta = math.pi
    s = make_string((PLUS, DIAG, DIAG), {1: 0.7 + 0.1j, 2: -0.3 + 0.4j})
    branches = llocal_branch(s, (0, 1, 2), theta)
    assert len(branches) == 5
    u = phase_gate_matrix(3, (0, 1, 2), theta)
    expected = u @ s.to_matrix() @ u.conj().T
    got = reconstruct_dense(branches, 3)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_llocal_branch_matches_dense_for_all_slot_triples():
    rng = np.random.default_rng(31)
    for kinds in product(KINDS, repeat=3):
        args = {}
        for q, k in enumerate(kinds):
            if k == DIAG:
                args[q] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2
        s = make_string(kinds, args, beta=complex(rng.normal(), rng.normal()))
        theta = rng.uniform(0, 2 * math.pi)
        branches = llocal_branch(s, (0, 1, 2), theta)
        assert len(branches) <= 2 ** 2 + 1
        u = phase_gate_matrix(3, (0, 1, 2), theta)
        expected = u @ s.to_matrix() @ u.conj().T
        got = reconstruct_dense(branches, 3)
        assert np.max(np.abs(got - expected)) < 1e-12


def test_llocal_branch_two_local_agrees_with_cphase2():
    # any target pair, in either order, on strings wider than the gate
    rng = np.random.default_rng(37)
    for _ in range(20):
        s = random_string(rng, 4)
        q1, q2 = (int(q) for q in rng.choice(4, size=2, replace=False))
        theta = rng.uniform(0, 2 * math.pi)
        u = phase_gate_matrix(4, (q1, q2), theta)
        expected = u @ s.to_matrix() @ u.conj().T
        got = cphase2(s, q1, q2, theta).to_matrix()
        assert np.max(np.abs(got - expected)) < 1e-12


def test_llocal_branch_bad_targets():
    s = make_string((DIAG, DIAG, DIAG))
    with pytest.raises(ValueError):
        llocal_branch(s, (0, 0, 1), 0.3)
    with pytest.raises(IndexError):
        llocal_branch(s, (0, 3), 0.3)


def test_damping_diagonal_argument_one():
    p = 0.1
    s = make_string((DIAG,), {0: 1.0 + 0.0j})
    out = apply_damping_layer(s, p)
    assert out.beta == pytest.approx(1.1)
    assert out.diag_args[0] == pytest.approx(0.9 / 1.1)


def test_damping_zero_argument_fixed_point():
    s = make_string((DIAG,), {0: 0.0j})
    out = apply_damping_layer(s, 0.5)
    assert out.beta == pytest.approx(1.0)
    assert out.diag_args[0] == 0.0


def test_damping_scales_offdiagonal_slots():
    s = make_string((PLUS,))
    out = apply_damping_layer(s, 0.36)
    assert out.beta == pytest.approx(0.8)  # sqrt(1 - 0.36)


def test_damping_kills_minus_one_argument_at_p_one():
    s = make_string((DIAG,), {0: -1.0 + 0.0j})
    out = apply_damping_layer(s, 1.0)
    assert out.beta == 0.0


def test_damping_matches_dense_channel():
    rng = np.random.default_rng(41)
    for p in (0.15, 0.6, 1.0):
        for _ in range(10):
            s = random_string(rng, 2)
            expected = s.to_matrix()
            apply_damping_dense(expected, 2, p)
            got = apply_damping_layer(s, p).to_matrix()
            assert np.max(np.abs(got - expected)) < 1e-12


def test_damping_bad_strength():
    s = make_string((DIAG,))
    for p in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            apply_damping_layer(s, p)


def test_propagate_single_cphase_worked_example():
    theta, p = 0.8, 0.25
    circuit = Circuit(n=2, d=1, p=p, layers=((Gate("cphase", (0, 1), theta),),))
    s = make_string((PLUS, DIAG), {1: 1.0 + 0.0j}, beta=0.25)
    branches = propagate(s, circuit)
    assert len(branches) == 1
    out = branches[0]
    # gate: arg -> e^{i theta}; damping: beta *= sqrt(1-p) (1 + a p), a -> a(1-p)/(1+ap)
    a_gate = cmath.exp(1j * theta)
    expected_beta = 0.25 * math.sqrt(1 - p) * (1 + a_gate * p)
    expected_arg = a_gate * (1 - p) / (1 + a_gate * p)
    assert out.kinds == (PLUS, DIAG)
    assert out.beta == pytest.approx(expected_beta)
    assert out.diag_args[1] == pytest.approx(expected_arg)


def test_propagate_idle_closed_form():
    n, d, p = 3, 5, 0.3
    shrink = (1 - p) ** d
    circuit = idle_circuit(n, d, p)
    all_diag = next(iter(initial_strings(n, 0)))
    (out,) = propagate(all_diag, circuit)
    assert out.beta == pytest.approx(2.0 ** -n * (2 - shrink) ** n)
    for q in range(n):
        assert out.diag_args[q] == pytest.approx(shrink / (2 - shrink))

    one_sigma = make_string((PLUS, DIAG, DIAG), beta=2.0 ** -n)
    (out,) = propagate(one_sigma, circuit)
    assert out.beta == pytest.approx(
        2.0 ** -n * (1 - p) ** (d / 2) * (2 - shrink) ** 2)


def test_propagate_full_weight_matches_dense():
    cases = [
        random_circuit(2, 6, 0.2, seed=1),
        random_circuit(3, 8, 0.45, seed=2),
        random_circuit(4, 5, 0.1, seed=3),
        random_circuit(3, 6, 0.3, locality=3, seed=4),
        random_circuit(4, 4, 0.5, locality=3, seed=5),
    ]
    for circuit in cases:
        n = circuit.n
        branches = []
        for s in initial_strings(n, n):
            branches.extend(propagate(s, circuit))
        got = reconstruct_dense(branches, n)
        expected = evolve_dense(circuit).rho
        assert np.max(np.abs(got - expected)) < 1e-10


def test_propagate_commutes_with_adjoint():
    circuit = random_circuit(3, 7, 0.35, locality=3, seed=8)
    rng = np.random.default_rng(9)
    for _ in range(10):
        s = random_string(rng, 3)
        direct = reconstruct_dense(propagate(s.adjoint(), circuit), 3)
        mirrored = reconstruct_dense(propagate(s, circuit), 3).conj().T
        assert np.max(np.abs(direct - mirrored)) < 1e-10


def gate_by_gate(s, circuit):
    """Reference propagation: every gate applied to every live branch, in circuit order."""
    work = [s]
    for layer in circuit.layers:
        for g in layer:
            if g.kind == "rz":
                work = [apply_single_qubit_rotation(b, g.targets[0], g.theta) for b in work]
            else:
                work = [c for b in work for c in llocal_branch(b, g.targets, g.theta)]
        work = [apply_damping_layer(b, circuit.p) for b in work]
        work = [b for b in work if b.log_beta.real != -math.inf]
    return work


def merged_by_args(branches):
    """(kinds, diag_args, summed beta) per distinct diag_args, in first-seen order."""
    groups = {}
    for b in branches:
        key = tuple(b.diag_args.values())
        if key in groups:
            groups[key][2] += b.beta
        else:
            groups[key] = [b.kinds, b.diag_args, b.beta]
    return list(groups.values())


def test_propagate_matches_gate_by_gate_reference():
    n, d = 5, 4
    branched = merged = 0
    for locality, seed in ((3, 12), (3, 13), (4, 14), (4, 15)):
        circuit = random_circuit(n, d, 0.35, locality=locality, seed=seed)
        assert any(g.kind == "rz" for _, g in circuit.gates())
        for s in initial_strings(n, 3):
            got = propagate(s, circuit)
            unmerged = gate_by_gate(s, circuit)
            want = merged_by_args(unmerged)
            assert len({tuple(b.diag_args.values()) for b in got}) == len(got)
            assert len(got) == len(want)
            branched += len(got) > 1
            merged += len(got) < len(unmerged)
            for a, (kinds, args, beta) in zip(got, want):
                assert a.kinds == kinds
                assert a.diag_args == args
                assert abs(a.beta - beta) <= 1e-12 * abs(beta)
    assert branched
    assert merged


def test_propagate_branch_count_bound():
    cases = reached = 0
    for locality in (3, 4):
        for n, d in ((5, 4), (6, 5), (7, 6)):
            for seed in range(2):
                circuit = random_circuit(n, d, 0.5, locality=locality, seed=20 + seed)
                for s in initial_strings(n, 3):
                    count, bound = len(propagate(s, circuit)), branch_count_bound(s, circuit)
                    assert count <= bound, (locality, n, d, seed, s.kinds)
                    cases += 1
                    reached += count == bound
    assert 0 < reached < cases


def test_propagate_rejects_out_of_range_rotation():
    # built directly: parse_circuit would reject these targets before propagation
    s = make_string((PLUS, DIAG, MINUS))
    for q in (-1, 3):
        circuit = Circuit(n=3, d=1, p=0.2, layers=((Gate("rz", (q,), 0.4),),))
        with pytest.raises(IndexError):
            propagate(s, circuit)


def test_propagate_rejects_size_mismatch():
    circuit = idle_circuit(3, 2, 0.1)
    with pytest.raises(ValueError):
        propagate(make_string((DIAG,)), circuit)


def test_propagate_keeps_arguments_in_unit_disc():
    for seed in range(5):
        circuit = random_circuit(4, 10, 0.4, locality=3, seed=seed)
        for s in initial_strings(4, 2):
            for b in propagate(s, circuit):
                assert all(abs(a) <= 1 + 1e-12 for a in b.diag_args.values())
                assert math.isfinite(b.log_beta.real)
