"""The benchmark's output checks pass on the program's outputs and catch faults.

Each check runs once on an intact output and once on a copy with one planted
fault, which it must report. The tracer must see the calls between modules and
leave the program as it found it.

    python3 -m pytest perfbench/tests
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import iqpdamp  # noqa: E402
import iqpdamp.cli  # noqa: E402,F401

import checks  # noqa: E402
import inputs  # noqa: E402
import jobs  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def small():
    job = inputs.small_sample_job(iqpdamp, seed=3)
    return job, jobs.run_job(iqpdamp, job)


def with_table(result, data):
    table = iqpdamp.HWCoefficientTable(result["table"].n, result["table"].cutoff)
    table.data = data
    return {**result, "table": table, "qd": iqpdamp.fourier_table(table)}


def test_intact_small_instance_passes_every_check(small):
    job, result = small
    assert jobs.check_table(job, result, two_local=True) == []
    assert jobs.check_outcomes(job, result) == []
    assert jobs.check_prefix_frequencies(job, result) == []
    assert jobs.check_dense(iqpdamp, job, result, 1e-10) == []


def test_check_table_reports_a_wrong_diagonal(small):
    job, result = small
    data = dict(result["table"].data)
    data[(1, 1)] *= 1.0 + 1e-6
    problems = jobs.check_table(job, with_table(result, data), two_local=True)
    assert any("diagonal entry" in p for p in problems)


def test_check_table_reports_a_broken_mirror_and_a_missing_entry(small):
    job, result = small
    data = dict(result["table"].data)
    ket, bra = next(key for key in data if key[0] != key[1])
    data[(ket, bra)] += 1e-18j
    assert any("Hermitian" in p for p in jobs.check_table(job, with_table(result, data), True))
    data = dict(result["table"].data)
    del data[(ket, bra)], data[(bra, ket)]
    assert any("entries, expected" in p for p in jobs.check_table(job, with_table(result, data), True))


def test_check_dense_reports_an_entry_off_the_density_matrix(small):
    job, result = small
    data = dict(result["table"].data)
    ket, bra = next(key for key in data if key[0] != key[1])
    data[(ket, bra)] += 1e-8
    data[(bra, ket)] += 1e-8
    problems = jobs.check_dense(iqpdamp, job, with_table(result, data), 1e-10)
    assert any("exact density matrix" in p for p in problems)


def test_check_dense_reports_a_sampler_outside_the_certified_distance(small):
    job, result = small
    mass = result["qd"].total_mass
    # every outcome bit biased to 0 with probability 0.95, far from the near-uniform Born law
    biased = iqpdamp.QuasiDistribution(job.n, {0: mass, **{1 << q: 0.9 * mass for q in range(job.n)}})
    problems = jobs.check_dense(iqpdamp, job, {**result, "qd": biased}, 1e-10)
    assert any("from Born in TVD" in p for p in problems)


def test_check_outcomes_and_prefixes_report_bad_draws(small):
    job, result = small
    short = {**result, "outcomes": result["outcomes"][:-1]}
    assert jobs.check_outcomes(job, short)
    skewed = {**result, "outcomes": ["0" * job.n] * len(result["outcomes"])}
    assert jobs.check_prefix_frequencies(job, skewed)


def test_single_string_recheck_beyond_sixty_one_qubits():
    n, d, p = 70, 33, 0.5
    circuit = iqpdamp.random_circuit(n, d, p, seed=4)
    job = inputs.Job("simulate", n, d, p, seed=9, text=iqpdamp.serialize_circuit(circuit))
    result = jobs.run_job(iqpdamp, job)
    assert result["budget"].k == 2
    assert jobs.check_result(iqpdamp, "table_2local_large", job, result) == []
    data = dict(result["table"].data)
    for key in data:
        data[key] *= 1.0 + 1e-6
    assert jobs.check_single_strings(iqpdamp, job, with_table(result, data))


def sweep_csv(rows):
    header = "k,hs_bound,hs_mean,hs_min,hs_max,td_mean,td_min,td_max,idle_hs,idle_td\n"
    return header + "".join(
        f"{k},{bound!r},0,0,{hs_max!r},0,0,0,{idle!r},0\n" for k, bound, hs_max, idle in rows)


def test_check_fig2_against_the_closed_form_idle_column():
    job = inputs.make_jobs(iqpdamp, "fig2_sweep", seed=1)[0]
    kmax = inputs.FIG2_KMAX
    idle = checks.idle_hs_tail(job.n, job.d, job.p, kmax)
    good = [(k, 1.0, 0.5 * idle[k], idle[k]) for k in range(kmax + 1)]
    assert jobs.check_fig2(job, {"code": 0, "csv": sweep_csv(good), "stderr": ""}) == []
    wrong_idle = [(k, b, h, i * (1.0 + 1e-6)) for k, b, h, i in good]
    assert jobs.check_fig2(job, {"code": 0, "csv": sweep_csv(wrong_idle), "stderr": ""})
    over = [(k, b, 2.0 if k == 3 else h, i) for k, b, h, i in good]
    assert jobs.check_fig2(job, {"code": 0, "csv": sweep_csv(over), "stderr": ""})
    assert jobs.check_fig2(job, {"code": 4, "csv": "", "stderr": "numerical failure"})


def test_tracer_sees_nested_calls_and_restores_the_program():
    originals = {name: getattr(iqpdamp, name) for name in ("sample", "marginal", "parse_circuit")}
    job = inputs.small_sample_job(iqpdamp, seed=5)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.job_span("0.0"):
            result = jobs.run_job(iqpdamp, job)
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        assert getattr(iqpdamp, name) is fn
    assert iqpdamp.sampler.marginal is originals["marginal"]
    names = [span[0] for span in tracer.spans]
    assert names[0] == "job"
    assert {"circuit_model.parse_circuit", "bounds.select_k", "fastpath.g2_low_weight_table",
            "fastpath.g2_low_weight_coefficients", "sampler.fourier_table", "sampler.sample",
            "sampler.marginal"} <= set(names)
    by_name = {span[0]: span for span in tracer.spans}
    coeffs = by_name["fastpath.g2_low_weight_coefficients"]
    assert tracer.spans[coeffs[3]][0] == "fastpath.g2_low_weight_table"
    assert all(tracer.spans[s[3]][0] == "sampler.sample"
               for s in tracer.spans if s[0] == "sampler.marginal")
    metrics = tracer.layer_metrics(jobs=1)
    assert metrics["sampler.draws"][0] == job.draws
    assert metrics["fastpath.entries"][0] == len(result["table"]) == checks.table_size(job.n, 2)
    assert metrics["sampler.marginal_calls"][0] == sum(1 for s in tracer.spans
                                                      if s[0] == "sampler.marginal")
    assert 0.0 < metrics["sampler.prefix_cache_hit_ratio"][0] < 1.0
    assert math.isclose(metrics["circuit_model.gates"][0],
                        sum(len(layer) for layer in result["circuit"].layers))
