import math
import tracemalloc

import numpy as np
import pytest

from helpers import plain_marginal, truncate_by_weight, tvd
import iqpdamp.sampler as sampler_module
from iqpdamp.circuit_model import idle_circuit, random_circuit
from iqpdamp.dense_oracle import born_distribution, evolve_dense, hadamard_conjugate
from iqpdamp.errors import NumericalError
from iqpdamp.fastpath import build_table_auto
from iqpdamp.hw_basis import POSITION, HWCoefficientTable, MaskView, build_table
from iqpdamp.sampler import (
    SAMPLE_N_CAP,
    QuasiDistribution,
    fourier_table,
    induced_distribution,
    marginal,
    sample,
)

# Fourier coefficients (scaled by 2^n) encoding the signed landscape
# q = [0.6, -0.1, 0.3, 0.2]: the sampler must fence off the negative cell.
ADVERSARIAL = QuasiDistribution(2, {0b00: 1.0, 0b01: 0.8, 0b10: 0.0, 0b11: 0.6})


def uniform_qd(n):
    return QuasiDistribution(n, {0: 1.0})


def exact_q(qd):
    """Brute-force q(x) over all outcomes, straight from the definition."""
    n = qd.n
    out = np.zeros(1 << n)
    for x in range(1 << n):
        out[x] = sum(c * (1 - 2 * ((x & s).bit_count() & 1))
                     for s, c in qd.coeffs.items()) / 2.0 ** n
    return out


def test_fourier_table_groups_by_xor():
    t = HWCoefficientTable(2, 2)
    t.data = {(0b00, 0b00): 0.5, (0b10, 0b00): 0.2 + 0.3j, (0b00, 0b10): 0.2 - 0.3j,
              (0b01, 0b01): 0.25}
    qd = fourier_table(t)
    assert qd.coeffs == pytest.approx({0b00: 0.75, 0b10: 0.4})
    assert qd.total_mass == pytest.approx(0.75)
    assert qd.q_tilde(0b10) == pytest.approx(0.1)
    assert qd.q_tilde(0b11) == 0.0


def test_fourier_table_rejects_non_hermitian():
    t = HWCoefficientTable(2, 2)
    t.data = {(0b00, 0b00): 1.0, (0b10, 0b00): 0.5j}  # mirror entry missing: imaginary part survives
    with pytest.raises(NumericalError, match="not real"):
        fourier_table(t)


def test_quasi_distribution_refuses_a_view_it_cannot_read():
    table = build_table(random_circuit(3, 4, 0.3, seed=1), 2)
    support = fourier_table(table).coeffs
    assert QuasiDistribution(3, support).coeffs is support
    # a table's rows hold ket then bra positions, not parities; another n reads other qubits
    for n, view in ((3, table.data), (5, support), (2, support)):
        with pytest.raises(ValueError, match="Fourier support on"):
            QuasiDistribution(n, view)


def test_marginal_uniform_and_bad_prefix():
    qd = uniform_qd(4)
    for prefix in ("", "0", "10", "111", "0101"):
        assert marginal(qd, prefix) == pytest.approx(2.0 ** -len(prefix))
    with pytest.raises(ValueError, match="prefix"):
        marginal(qd, "00000")
    for prefix in ("0b1", "1_0", " 01", "+1", "-1", "012", "1 ", "\u0661"):
        with pytest.raises(ValueError, match="0s and 1s"):
            marginal(qd, prefix)


def test_bad_prefix_is_refused_before_any_numpy_work(monkeypatch):
    qd = uniform_qd(3)

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} used on a bad prefix")

    monkeypatch.setattr(sampler_module, "np", NoNumpy())
    for prefix in ("\u0661", "0\u0661", "\u0661\u0660", "01\u00b2"):
        with pytest.raises(ValueError, match="0s and 1s"):
            marginal(qd, prefix)
    with pytest.raises(ValueError, match="prefix longer than n=3"):
        marginal(qd, "0000")


def support_2local_n32():
    return fourier_table(build_table_auto(random_circuit(32, 28, 0.5, locality=2, seed=5), 2))


def support_3local():
    table = build_table_auto(random_circuit(6, 5, 0.9, locality=3, seed=0), 4)
    assert table.data.rows.shape[1] == 8
    return fourier_table(table)


def support_n70():
    return fourier_table(build_table_auto(random_circuit(70, 8, 0.4, seed=2), 2))


@pytest.mark.parametrize("make", [
    support_2local_n32,
    support_3local,
    support_n70,
    lambda: QuasiDistribution(9, {0: 0.75}),
    lambda: QuasiDistribution(5, {}),
    # frequencies past the prefix give -0.0 terms; the sum still starts from 0.0
    lambda: QuasiDistribution(3, {0b100: -0.5, 0b010: -0.25}),
    # marginals turn subnormal from about 30 bits on, where scaling a parent loses bits
    lambda: QuasiDistribution(40, {(1 << 39) >> q: 1e-300 * (1 + q / 7) for q in range(0, 40, 3)}),
], ids=["2local-n32", "3local-k4", "n70", "frequency-0-only", "empty", "negative-first",
        "subnormal"])
def test_marginal_is_bitwise_the_plain_loop_at_every_prefix_length(make):
    qd = make()
    rng = np.random.default_rng(qd.n)
    for bits in ("0" * qd.n, "1" * qd.n, "".join(rng.choice(["0", "1"], size=qd.n))):
        for length in range(qd.n + 1):
            # repr tells -0.0 from 0.0
            want = repr(plain_marginal(qd, bits[:length]))
            assert repr(marginal(qd, bits[:length])) == want
            if length:
                parent = marginal(qd, bits[:length - 1])
                assert repr(marginal(qd, bits[:length], parent)) == want


def one_entry_support():
    # p = 1 damps every sigma away: the support is frequency 0 alone
    return fourier_table(build_table_auto(random_circuit(4, 3, 1.0, seed=0), 2))


@pytest.mark.parametrize("make", [one_entry_support, support_2local_n32, support_3local, support_n70],
                         ids=["n4-p1", "2local-n32", "3local-k4", "n70"])
def test_a_support_has_the_same_rows_from_a_table_and_from_a_mapping(make, monkeypatch):
    qd = make()
    rebuilt = QuasiDistribution(qd.n, dict(qd.coeffs.items()))
    rows = qd.coeffs.rows
    assert rows.shape == rebuilt.coeffs.rows.shape and rows.tobytes() == rebuilt.coeffs.rows.tobytes()
    assert rows.shape[1] == max(1, max(s.bit_count() for s in qd.coeffs))

    def no_single_lookups(self, key):
        raise AssertionError("rows of one width compare without single-key lookups")

    monkeypatch.setattr(MaskView, "__getitem__", no_single_lookups)
    assert qd == rebuilt and rebuilt == qd


LEVEL_CASES = [(n, width) for n in (1, 3, 9, 40, 64, 70) for width in (1, 2, 3, 4) if width <= n]


@pytest.mark.parametrize("n, width", LEVEL_CASES, ids=[f"n{n}-w{w}" for n, w in LEVEL_CASES])
def test_marginal_reads_only_the_frequencies_its_prefix_sees(n, width):
    rng = np.random.default_rng(100 * n + width)
    entries = {0: 0.5} if n % 2 else {}
    for size in [width] + rng.integers(1, width + 1, size=59).tolist():
        positions = rng.choice(n, size=size, replace=False).tolist()
        entries[sum(1 << (n - 1 - q) for q in positions)] = float(rng.normal())
    keys = list(entries)
    rng.shuffle(keys)
    entries = {s: entries[s] for s in keys}
    entries[keys[0]] = -0.0
    qd = QuasiDistribution(n, entries)
    assert qd.coeffs.rows.shape[1] == width
    # level 0 holds frequency 0, level q + 1 the frequencies whose highest position is q
    highest = [s and n - (s & -s).bit_length() for s in entries]
    assert [len(vals) - 1 for vals, _, _ in qd._levels] == (
        [sum(1 for s in entries if s == 0)]
        + [sum(1 for s, h in zip(entries, highest) if s and h == q) for q in range(n)])
    for bits in ("0" * n, "1" * n, "".join(rng.choice(["0", "1"], size=n))):
        for length in range(n + 1):
            got = marginal(qd, bits[:length])
            want = repr(plain_marginal(qd, bits[:length]))
            assert repr(got) == want
            if length:
                parent = marginal(qd, bits[:length - 1])
                assert repr(marginal(qd, bits[:length], parent)) == want
            # the support-order sum differs by rounding alone: at most 2 m u sum|v| / 2^k
            seen = [abs(v) for s, v in entries.items() if not s & ((1 << (n - length)) - 1)]
            bound = 2 * len(seen) * 2.0 ** -53 * sum(seen) / 2.0 ** length
            assert abs(got - plain_marginal(qd, bits[:length], level_order=False)) <= bound


@pytest.mark.parametrize("make", [support_2local_n32, support_3local, support_n70],
                         ids=["2local-n32", "3local-k4", "n70"])
def test_a_continued_marginal_reads_only_its_bucket(make):
    qd = make()
    n, rows, vals = qd.n, qd.coeffs.rows, qd.coeffs.vals
    highest = np.where(rows < n, rows, -1).max(axis=1)  # -1 for frequency 0
    bits = "".join(np.random.default_rng(n).choice(["0", "1"], size=n))
    for length in range(1, n + 1):
        # the same rows, with other values on every frequency below level length - 1
        below = highest < length - 1
        altered = QuasiDistribution(n, MaskView(n, 1, rows, np.where(below, 3.0 * vals + 1.0, vals)))
        want = marginal(qd, bits[:length])
        assert marginal(altered, bits[:length]) != want
        parent = marginal(qd, bits[:length - 1])
        assert repr(marginal(altered, bits[:length], parent)) == repr(want)


def test_sampling_is_refused_above_the_cap():
    # a marginal scales by 2^-k at any k; sampling refuses n past SAMPLE_N_CAP up front
    wide = QuasiDistribution(SAMPLE_N_CAP + 1, {0: 1.0})
    assert marginal(wide, "0" * wide.n) == math.ldexp(1.0, -wide.n)
    with pytest.raises(ValueError, match=f"sampling capped at n <= {SAMPLE_N_CAP}, got n=1024"):
        sample(wide, 1, seed=0)
    assert [len(y) for y in sample(QuasiDistribution(SAMPLE_N_CAP, {0: 1.0}), 1, seed=0)] == [1023]


def support_with_an_empty_level():
    qd = support_3local()
    rows, vals = qd.coeffs.rows, qd.coeffs.vals
    keep = np.where(rows < qd.n, rows, -1).max(axis=1) != 3  # no frequency's highest position is 3
    qd = QuasiDistribution(qd.n, MaskView(qd.n, 1, rows[keep], vals[keep]))
    assert len(qd._levels[4][0]) == 1  # the leading slot alone
    return qd


def support_of_single_positions():
    # k = 1 leaves parities of one position: no bucket keeps a gather column
    qd = fourier_table(build_table_auto(random_circuit(9, 6, 0.3, seed=2), 1))
    assert qd.coeffs.rows.shape[1] == 1 and not any(columns for _, _, columns in qd._levels)
    return qd


def test_sampler_follows_the_plain_loop(monkeypatch):
    # the largest sample_2local shape, small shapes and buckets empty or without gathers
    largest = fourier_table(build_table_auto(random_circuit(56, 31, 0.5, locality=2, seed=7), 2))
    cases = [(support_2local_n32(), 200, 3), (largest, 20, 5), (support_3local(), 200, 4),
             (support_with_an_empty_level(), 200, 6), (support_of_single_positions(), 200, 9)]

    def run_all():
        runs = []
        for qd, count, seed in cases:
            audit = []
            draws = sample(qd, count, seed=seed, audit=audit)
            induced = repr(induced_distribution(qd)) if qd.n <= 12 else None
            runs.append((draws, repr(audit), induced))
        return runs

    fast = run_all()
    monkeypatch.setattr(sampler_module, "marginal", plain_marginal)
    assert run_all() == fast


def test_the_level_layout_is_made_by_the_first_marginal():
    qd = support_2local_n32()
    assert "_levels" not in vars(qd)  # a Fourier support that is never sampled costs no layout
    marginal(qd, "0")
    levels = vars(qd)["_levels"]
    marginal(qd, "01", marginal(qd, "0"))
    assert qd._levels is levels


def test_marginal_closed_form_on_idle_qubit():
    for p, d in ((0.2, 4), (0.5, 9)):
        qd = fourier_table(build_table(idle_circuit(1, d, p), 2))
        expected_plus = (1.0 + (1.0 - p) ** (d / 2)) / 2.0
        assert marginal(qd, "0") == pytest.approx(expected_plus, rel=1e-13)
        assert marginal(qd, "1") == pytest.approx(1.0 - expected_plus, rel=1e-12)
        assert marginal(qd, "") == pytest.approx(1.0, rel=1e-13)


def test_full_cutoff_q_equals_born_distribution():
    c = random_circuit(5, 7, 0.3, seed=13)
    qd = fourier_table(build_table(c, 2 * c.n))
    born = born_distribution(evolve_dense(c))
    for x in range(1 << c.n):
        assert marginal(qd, format(x, "05b")) == pytest.approx(born[x], abs=1e-10)


def test_truncated_q_matches_dense_truncation():
    c = random_circuit(5, 6, 0.25, seed=17)
    k = 3
    qd = fourier_table(build_table(c, k))
    sigma = truncate_by_weight(evolve_dense(c).rho, c.n, k)
    q_dense = np.real(np.diag(hadamard_conjugate(sigma, c.n)))
    for x in range(1 << c.n):
        assert marginal(qd, format(x, "05b")) == pytest.approx(q_dense[x], abs=1e-10)


def test_marginals_telescope():
    c = random_circuit(4, 8, 0.4, seed=19)
    for k in (2, 4):
        qd = fourier_table(build_table(c, k))
        for length in range(4):
            for y in range(1 << length):
                prefix = format(y, f"0{length}b") if length else ""
                parent = marginal(qd, prefix)
                children = marginal(qd, prefix + "0") + marginal(qd, prefix + "1")
                assert children == pytest.approx(parent, abs=1e-12)


def test_exact_q_brute_force_agrees():
    qd = ADVERSARIAL
    assert exact_q(qd) == pytest.approx([0.6, -0.1, 0.3, 0.2])
    for x, prefix in enumerate(("00", "01", "10", "11")):
        assert marginal(qd, prefix) == pytest.approx(exact_q(qd)[x])


def test_sample_deterministic_in_seed():
    qd = fourier_table(build_table(random_circuit(4, 6, 0.3, seed=23), 4))
    a = sample(qd, 64, seed=5)
    b = sample(qd, 64, seed=5)
    c = sample(qd, 64, seed=6)
    assert a == b
    assert a != c
    assert all(len(s) == 4 and set(s) <= {"0", "1"} for s in a)
    assert sample(qd, 0, seed=1) == []


def test_sample_uniform_bit_marginals():
    draws = sample(uniform_qd(3), 4000, seed=7)
    counts = np.zeros(3)
    for s in draws:
        counts += np.array([int(ch) for ch in s])
    # each bit is a fair coin: 4000 flips stay within 5 sigma of half
    assert np.all(np.abs(counts / 4000 - 0.5) < 5 * 0.5 / np.sqrt(4000))


def test_adversarial_landscape_fences_negative_cell():
    audit = []
    draws = sample(ADVERSARIAL, 500, seed=11, audit=audit)
    assert "01" not in set(draws)
    forced = {(y, forced) for y, s0, s1, forced in audit if forced is not None}
    assert forced == {("0", "0")}
    decisions = {y: (s0, s1) for y, s0, s1, _ in audit}
    assert decisions[""] == (pytest.approx(0.5), pytest.approx(0.5))
    assert decisions["0"] == (pytest.approx(0.6), pytest.approx(-0.1))


def test_induced_distribution_of_adversarial_landscape():
    induced = induced_distribution(ADVERSARIAL)
    assert "01" not in induced  # the fenced branch is never reached
    assert induced == pytest.approx({"00": 0.5, "10": 0.3, "11": 0.2})
    assert sum(induced.values()) == pytest.approx(1.0)


def test_induced_matches_empirical_frequencies():
    draws = sample(ADVERSARIAL, 20000, seed=29)
    freq = {s: 0.0 for s in ("00", "01", "10", "11")}
    for s in draws:
        freq[s] += 1.0 / len(draws)
    induced = induced_distribution(ADVERSARIAL)
    assert tvd([freq[s] for s in sorted(freq)],
               [induced.get(s, 0.0) for s in sorted(freq)]) < 0.02


def test_induced_equals_born_when_exact():
    c = random_circuit(4, 6, 0.35, seed=31)
    qd = fourier_table(build_table(c, 2 * c.n))
    induced = induced_distribution(qd)
    born = born_distribution(evolve_dense(c))
    for x in range(1 << c.n):
        assert induced[format(x, "04b")] == pytest.approx(born[x], abs=1e-10)
    audit = []
    sample(qd, 16, seed=3, audit=audit)
    assert all(forced is None for _, _, _, forced in audit)


@pytest.mark.parametrize("n, locality", [(3, 2), (6, 2), (7, 3), (8, 2)])
def test_induced_distribution_is_born_at_full_cutoff(n, locality):
    c = random_circuit(n, 5, 0.3, locality=locality, seed=n)
    induced = induced_distribution(fourier_table(build_table(c, 2 * n)))
    born = born_distribution(evolve_dense(c))
    assert max(abs(induced.get(format(x, f"0{n}b"), 0.0) - born[x]) for x in range(1 << n)) < 1e-12


def test_prefix_cache_memory_grows_with_draws_not_with_n():
    qd = uniform_qd(60)
    sample(qd, 1, seed=0)  # the columns are made before tracing
    tracemalloc.start()
    try:
        draws = sample(qd, 400, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(draws)) == 400
    # caching every child prefix took about 15 KB a draw here
    assert peak < 2000 * len(draws)


def test_induced_distribution_sums_to_one():
    for seed, k in ((1, 2), (2, 3)):
        qd = fourier_table(build_table(random_circuit(5, 8, 0.35, seed=seed), k))
        induced = induced_distribution(qd)
        assert sum(induced.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0.0 for v in induced.values())


def test_induced_distribution_size_cap():
    with pytest.raises(ValueError, match="12"):
        induced_distribution(uniform_qd(13))


def test_nonpositive_mass_is_rejected():
    empty = QuasiDistribution(2, {0: 0.0})
    with pytest.raises(NumericalError, match="nonpositive mass"):
        sample(empty, 1, seed=0)
    with pytest.raises(NumericalError, match="nonpositive mass"):
        induced_distribution(QuasiDistribution(2, {0: -0.5}))
    # a builder's NaN comes as columns, which skip the mapping entry point's checks
    nan = QuasiDistribution(2, MaskView(2, 1, np.full((1, 1), 2, dtype=POSITION),
                                        np.array([math.nan])))
    with pytest.raises(NumericalError, match="nonpositive mass nan"):
        sample(nan, 3, seed=0)
    with pytest.raises(NumericalError, match="nonpositive mass nan"):
        induced_distribution(nan)
    with pytest.raises(ValueError):
        sample(uniform_qd(2), -1, seed=0)
    # a NaN at any frequency reaches every marginal, the total mass included
    nan_off_root = QuasiDistribution(2, MaskView(2, 1, np.array([[2], [0]], dtype=POSITION),
                                                 np.array([1.0, math.nan])))
    with pytest.raises(NumericalError, match="nonpositive mass nan"):
        sample(nan_off_root, 3, seed=0)


def test_induced_distribution_skips_zero_probability_prefixes():
    # prefix "1" has probability 0 and both of its children have mass 0
    qd = QuasiDistribution(2, {0: 1.0, 0b10: 1.0})
    assert (marginal(qd, "1"), marginal(qd, "10"), marginal(qd, "11")) == (0.0, 0.0, 0.0)
    assert induced_distribution(qd) == {"00": 0.5, "01": 0.5}
    assert set(sample(qd, 200, seed=4)) == {"00", "01"}
