import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import iqpdamp.cli as cli
from iqpdamp.bounds import (
    hs_truncation_bound,
    select_k,
    table_size_bound,
    td_truncation_bound,
    trace_deficit_bound,
)
from iqpdamp.circuit_model import random_circuit, serialize_circuit
from iqpdamp.errors import NumericalError
from iqpdamp.fastpath import build_table_auto, g2_low_weight_table
from iqpdamp.hw_basis import parse_table
from iqpdamp.sampler import fourier_table

VALID = "iqp n=2 d=1 p=0.5\nlayer 0\nrz 0 0.25\nrz 1 1.5\n"


def run(argv):
    return cli.main(argv)


def test_simulate_writes_parseable_table(tmp_path, capsys):
    out = tmp_path / "table.txt"
    code = run(["simulate", "--random", "4,6,0.3", "--k", "2", "--out", str(out)])
    assert code == 0
    table = parse_table(out.read_text())
    ref = g2_low_weight_table(random_circuit(4, 6, 0.3, seed=0), 2)
    assert set(table.data) == set(ref.data)
    for key, v in ref.data.items():
        assert table.data[key] == pytest.approx(v, rel=1e-14, abs=1e-300)
    captured = capsys.readouterr()
    # with --out, the report goes to stdout
    assert "k=2" in captured.out
    assert f"entries={len(ref)}" in captured.out
    assert "hs_bound=" in captured.out


def test_simulate_stdout_routing(capsys):
    code = run(["simulate", "--random", "3,4,0.2", "--k", "0"])
    assert code == 0
    captured = capsys.readouterr()
    table = parse_table(captured.out)  # table on stdout, report on stderr
    assert len(table) == 1
    assert "k=0" in captured.err
    assert "entries=1" in captured.err


def test_simulate_epsilon_reports_budget(tmp_path, capsys):
    out = tmp_path / "t.txt"
    code = run(["simulate", "--random", "4,30,0.4", "--epsilon", "0.2",
                "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "k=1" in captured.out
    assert "delta=" in captured.out and "td_bound=" in captured.out
    budget = select_k(4, 30, 0.4, 0.2)
    assert f"epsilon={format(0.2, '.17g')}" in captured.out
    assert any(line == f"td_bound={format(budget.td_bound, '.17g')}"
               for line in captured.out.splitlines())


def test_simulate_csv_and_jsonl(tmp_path):
    csv_path = tmp_path / "t.csv"
    run(["simulate", "--random", "3,5,0.25", "--k", "2",
         "--format", "csv", "--out", str(csv_path)])
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "ket,bra,re,im"
    ref = g2_low_weight_table(random_circuit(3, 5, 0.25, seed=0), 2)
    assert len(lines) == len(ref) + 1

    jsonl_path = tmp_path / "t.jsonl"
    run(["simulate", "--random", "3,5,0.25", "--k", "2",
         "--format", "jsonl", "--out", str(jsonl_path)])
    rows = [json.loads(ln) for ln in jsonl_path.read_text().splitlines()]
    assert len(rows) == len(ref)
    assert set(rows[0]) == {"ket", "bra", "re", "im"}
    got = {(int(r["ket"], 2), int(r["bra"], 2)): complex(r["re"], r["im"])
           for r in rows}
    for key, v in ref.data.items():
        assert got[key] == pytest.approx(v)


def test_simulate_from_circuit_file(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text(VALID)
    code = run(["simulate", "--circuit", str(path), "--k", "1"])
    assert code == 0
    table = parse_table(capsys.readouterr().out)
    assert table.n == 2


def test_sample_deterministic(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.txt", "b.txt", "c.txt"))
    base = ["sample", "--random", "4,6,0.3", "--k", "2", "--samples", "40"]
    assert run(base + ["--seed", "0", "--out", str(a)]) == 0
    assert run(base + ["--seed", "0", "--out", str(b)]) == 0
    assert run(base + ["--seed", "1", "--out", str(c)]) == 0
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()
    lines = a.read_text().splitlines()
    assert len(lines) == 40
    assert all(len(ln) == 4 and set(ln) <= {"0", "1"} for ln in lines)


def test_sample_csv_counts(tmp_path):
    out = tmp_path / "s.csv"
    run(["sample", "--random", "3,4,0.2", "--k", "2", "--samples", "100",
         "--format", "csv", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "outcome,count"
    counts = [int(ln.split(",")[1]) for ln in lines[1:]]
    assert sum(counts) == 100
    outcomes = [ln.split(",")[0] for ln in lines[1:]]
    assert outcomes == sorted(outcomes)


def test_sample_zero_draws(tmp_path):
    out = tmp_path / "empty.txt"
    code = run(["sample", "--random", "3,4,0.2", "--k", "1", "--samples", "0",
                "--out", str(out)])
    assert code == 0
    assert out.read_text() == ""


def test_sample_reports_its_budget(tmp_path, capsys):
    argv = ["sample", "--random", "4,30,0.4", "--epsilon", "0.2", "--samples", "20"]
    assert run(argv) == 0
    draws, report = capsys.readouterr()
    # the draws alone on stdout; the budget and the support size on stderr
    assert [len(ln) for ln in draws.splitlines()] == [4] * 20 and set(draws) <= {"0", "1", "\n"}
    budget = select_k(4, 30, 0.4, 0.2)
    qd = fourier_table(build_table_auto(random_circuit(4, 30, 0.4, seed=0), budget.k))
    assert report.splitlines() == [*budget.report_lines(), f"support={len(qd.coeffs)}"]
    assert "k=1" in report.splitlines()
    # with --out, the report goes to stdout, as simulate's does
    out = tmp_path / "draws.txt"
    assert run(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr() == (report, "")
    assert out.read_text() == draws
    # no draws, no table: the budget alone
    assert run(argv[:-1] + ["0"]) == 0
    assert capsys.readouterr() == ("", "".join(f"{ln}\n" for ln in budget.report_lines()))


def test_sample_rejects_negative_count(capsys):
    assert run(["sample", "--random", "3,4,0.2", "--k", "1", "--samples", "-1"]) == 2
    assert capsys.readouterr().err == "error: --samples must be >= 0, got -1\n"


def test_bounds_csv_matches_functions(tmp_path):
    # p = 1 and the cutoffs k >= 2n must read 0 in both formats
    for n, d, p in ((4, 30, 0.4), (5, 2, 0.3), (3, 4, 1.0)):
        argv = ["bounds", "--random", f"{n},{d},{p}", "--kmax", str(2 * n + 2)]
        csv_out, jsonl_out = tmp_path / "b.csv", tmp_path / "b.jsonl"
        assert run(argv + ["--out", str(csv_out)]) == 0
        assert run(argv + ["--format", "jsonl", "--out", str(jsonl_out)]) == 0
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "k,hs_bound,trace_bound,td_bound"
        assert len(lines) == 2 * n + 4
        rows = [json.loads(ln) for ln in jsonl_out.read_text().splitlines()]
        for k, (row, line) in enumerate(zip(rows, lines[1:], strict=True)):
            expected = (k, hs_truncation_bound(n, d, p, k), trace_deficit_bound(n, d, p, k),
                        td_truncation_bound(n, d, p, k))
            assert tuple(float(x) for x in line.split(",")) == expected
            assert row == dict(zip(lines[0].split(","), expected))
            if p == 1.0 or k >= 2 * n:
                assert expected[1:] == (0.0, 0.0, 0.0)


def test_bounds_default_kmax(capsys):
    assert run(["bounds", "--random", "3,5,0.3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == min(2 * 3, 12) + 2  # header + k = 0..6


def test_bounds_kmax_limit(capsys):
    assert run(["bounds", "--random", "4,3,0.5", "--kmax", str(cli._MAX_KMAX)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == cli._MAX_KMAX + 2
    assert lines[-1] == f"{cli._MAX_KMAX},0,0,0"
    assert run(["bounds", "--random", "4,3,0.5", "--kmax", "1000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --kmax must be <= {cli._MAX_KMAX}, got 1000000; "
                            "every row past k = 2n is zero\n")


def test_negative_kmax_exits_two(capsys):
    for argv in (["bounds", "--random", "3,5,0.3", "--kmax", "-1"],
                 ["reproduce-fig2", "--n", "3", "--d", "2", "--instances", "1", "--kmax", "-1"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--kmax must be >= 0, got -1" in captured.err


def test_reproduce_fig2_checks_the_circuit_before_any_worker(monkeypatch, capsys):
    def no_worker(circuit, kmax):
        raise AssertionError("a worker started")

    monkeypatch.setenv("IQPDAMP_THREADS", "1")
    monkeypatch.setattr(cli, "_fig2_instance", no_worker)
    for flags, message in ((["--p", "1.5"], "p must lie in (0,1], got 1.5"),
                           (["--p", "nan"], "p must lie in (0,1], got nan"),
                           (["--d", "0"], "d must be >= 1, got 0"),
                           (["--n", "0"], "n must be >= 1, got 0"),
                           (["--n", str(cli._FIG2_N_CAP + 1)],
                            f"dense sweep needs n <= {cli._FIG2_N_CAP}, got n={cli._FIG2_N_CAP + 1}"),
                           (["--kmax", str(cli._MAX_KMAX + 1)],
                            f"--kmax must be <= {cli._MAX_KMAX}, got {cli._MAX_KMAX + 1}")):
        assert run(["reproduce-fig2", "--instances", "1", "--kmax", "1", *flags]) == 2
        err = capsys.readouterr().err
        assert message in err and "Warning" not in err


def test_validate_ok_and_invalid(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text(VALID)
    assert run(["validate", "--circuit", str(good)]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    bad = tmp_path / "bad.txt"
    bad.write_text("iqp n=2 d=1 p=0.5\nlayer 0\nrz 5 0.25\n")
    assert run(["validate", "--circuit", str(bad)]) == 2
    assert "invalid:" in capsys.readouterr().err


def test_validate_reports_every_problem_on_one_invalid_line(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("iqp n=3 d=2 p=0.5\nlayer 0\nrz 0 1 0.5\ncphase 2 0.5\n")
    assert run(["validate", "--circuit", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invalid: expected 2 layers, got 1; "
                            "layer 0: rz takes exactly 1 target, got 2; "
                            "layer 0: cphase takes >= 2 targets, got 1\n")


def test_validate_refuses_repeated_and_unknown_header_fields(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("iqp n=2 n=3 d=1 p=0.5 foo=bar\nlayer 0\n")
    assert run(["validate", "--circuit", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid: line 1, column 9: repeated header field 'n'\n"
    path.write_text("iqp n=2 d=1 p=0.5 foo=bar\nlayer 0\n")
    assert run(["validate", "--circuit", str(path)]) == 2
    assert capsys.readouterr().err == "invalid: line 1, column 19: unknown header field 'foo'\n"


def test_validate_dense_check(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text(VALID)
    assert run(["validate", "--circuit", str(good), "--dense-check"]) == 0
    assert "dense check" in capsys.readouterr().out
    assert run(["validate", "--random", "9,3,0.2", "--dense-check"]) == 2


def test_validate_takes_no_output_options(tmp_path, capsys):
    out = tmp_path / "v.txt"
    for extra in (["--out", str(out)], ["--format", "jsonl"]):
        with pytest.raises(SystemExit) as exc:
            run(["validate", "--random", "3,4,0.2"] + extra)
        assert exc.value.code == 2
    assert not out.exists()
    assert run(["validate", "--random", "3,4,0.2", "--seed", "3"]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_non_finite_epsilon_exits_two(capsys):
    for eps in ("nan", "inf"):
        code = run(["simulate", "--random", "4,30,0.4", "--epsilon", eps])
        assert code == 2
        assert "error: epsilon must be finite and > 0" in capsys.readouterr().err


def test_certification_refusal_exit_code(capsys):
    code = run(["simulate", "--random", "4,5,0.3", "--epsilon", "0.2"])
    assert code == 3
    err = capsys.readouterr().err
    assert "refused:" in err and "d_T" in err


def test_numerical_failure_exit_code(monkeypatch, capsys):
    def boom(table):
        raise NumericalError("forced failure")

    monkeypatch.setattr(cli, "fourier_table", boom)
    code = run(["sample", "--random", "3,4,0.2", "--k", "1", "--samples", "5"])
    assert code == 4
    assert "numerical failure: forced failure" in capsys.readouterr().err


def test_negative_k_rejected(capsys):
    code = run(["simulate", "--random", "3,4,0.2", "--k", "-1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_oversized_request_refused_up_front(capsys):
    # k = 4 at n = 1000 would enumerate 6.6e11 initial strings; the last
    # estimate lies past the float range
    cases = [(["simulate", "--random", "1000,100,0.3,3", "--k", "4"], "6.66e+11"),
             (["sample", "--samples", "10", "--random", "1000,100,0.3,3", "--k", "4"],
              "6.66e+11"),
             (["simulate", "--random", "600,45,0.5", "--k", "600"], "8.81e+360")]
    for argv, estimate in cases:
        start = time.perf_counter()
        code = run(argv)
        assert code == 2
        assert time.perf_counter() - start < 10
        assert f"allows up to {estimate} table entries" in capsys.readouterr().err
    # the full n = 8 table and the n = 1000, k = 2 demo stay within the limit
    assert table_size_bound(8, 16) == 65536 <= cli.MAX_TABLE_ENTRIES
    assert table_size_bound(1000, 2) <= cli.MAX_TABLE_ENTRIES


def test_usage_errors_exit_two():
    assert run(["simulate", "--random", "3,4", "--k", "1"]) == 2  # missing p field
    # argparse's own syntax errors print usage and raise SystemExit(2)
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--random", "3,4,0.2", "--k", "1", "--epsilon", "0.1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--k", "1"])  # no circuit source
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--random", "3,4", "--k", "1"], "--random expects n,d,p[,l], got '3,4'"),
    (["validate", "--random", "3,x,0.2"],
     "--random expects n,d,p[,l] with integer n,d,l and float p, got '3,x,0.2'"),
    (["bounds", "--circuit", "missing.txt"],
     "cannot read circuit file: [Errno 2] No such file or directory: 'missing.txt'"),
    (["sample", "--random", "0,4,0.2", "--k", "1", "--samples", "1"],
     "n must be >= 1, got 0"),
    (["sample", "--random", "3,4,0.2", "--k", "1", "--samples", "-1"],
     "--samples must be >= 0, got -1"),
    (["bounds", "--random", "3,5,0.3", "--kmax", "-1"], "--kmax must be >= 0, got -1"),
    (["validate", "--random", "9,3,0.2", "--dense-check"], "--dense-check needs n <= 8, got n=9"),
    (["reproduce-fig2", "--instances", "0"], "--instances must be >= 1, got 0"),
    (["reproduce-fig2", "--kmax", "-1"], "--kmax must be >= 0, got -1"),
    (["reproduce-fig2", "--d", "0", "--p", "2"],
     "d must be >= 1, got 0; p must lie in (0,1], got 2.0"),
    (["reproduce-fig2", "--n", "15"], f"dense sweep needs n <= {cli._FIG2_N_CAP}, got n=15"),
    (["validate", "--circuit", "latin1.txt"], "cannot read circuit file: latin1.txt: 'utf-8' "
     "codec can't decode byte 0xff in position 16: invalid start byte"),
    (["simulate", "--random", "10,3,0.9,3", "--k", "21"], "--k must lie in [0, 2n] = [0, 20], got 21"),
    (["sample", "--random", "10,3,0.9", "--k", "25", "--samples", "5"],
     "--k must lie in [0, 2n] = [0, 20], got 25"),
    (["sample", "--random", "1030,5,0.5", "--k", "0", "--samples", "1"],
     f"sample needs n <= {cli.SAMPLE_N_CAP}, got n=1030"),
])
def test_every_refusal_is_one_error_line(argv, message, tmp_path, monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("table work started before the request was refused")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "build_table_auto", no_work)
    (tmp_path / "latin1.txt").write_bytes(b"iqp n=2 d=1 p=0.\xff5\nlayer 0\n")
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_refusal_on_the_command_line_is_one_error_line():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "iqpdamp.cli", "sample", "--random", "3,4,0.2",
                           "--k", "1", "--samples", "-1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: --samples must be >= 0, got -1\n"


@pytest.mark.parametrize("out", ["missing-dir/out.txt", ""])
@pytest.mark.parametrize("argv", [
    ["simulate", "--random", "3,20,0.5", "--k", "1"],
    ["sample", "--random", "3,20,0.5", "--k", "1", "--samples", "5"],
    ["bounds", "--random", "3,20,0.5"],
    ["reproduce-fig2", "--n", "3", "--d", "2", "--instances", "1", "--kmax", "1"],
])
def test_unwritable_output_is_refused_before_any_work(argv, out, tmp_path, monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("work started before the output was opened")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("IQPDAMP_THREADS", "1")
    monkeypatch.setattr(cli, "build_table_auto", no_work)
    monkeypatch.setattr(cli, "_fig2_instance", no_work)
    assert run([*argv, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot write output file: "
                            f"[Errno 2] No such file or directory: {out!r}\n")


@pytest.mark.parametrize("argv", [
    ["simulate", "--k", "1"],
    ["sample", "--k", "1", "--samples", "5"],
    ["bounds"],
    ["validate"],
])
def test_negative_seed_is_refused_before_any_work(argv, tmp_path, monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("work started before the seed was checked")

    path = tmp_path / "c.txt"
    path.write_text(VALID)
    monkeypatch.setattr(cli, "build_table_auto", no_work)
    monkeypatch.setattr(cli, "_load_circuit", no_work)
    monkeypatch.setattr(cli, "_fig2_instance", no_work)
    for source in (["--circuit", str(path)], ["--random", "3,4,0.2"]):
        assert run([*argv, *source, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be >= 0, got -1\n"
    assert run(["reproduce-fig2", "--n", "3", "--d", "2", "--instances", "1", "--seed", "-2"]) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -2\n"


def test_reproduce_fig2_small_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("IQPDAMP_THREADS", "1")
    out = tmp_path / "fig2.csv"
    code = run(["reproduce-fig2", "--n", "5", "--d", "4", "--p", "0.2",
                "--instances", "3", "--kmax", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("k,hs_bound,hs_mean,hs_min,hs_max,"
                        "td_mean,td_min,td_max,idle_hs,idle_td")
    assert len(lines) == 4
    for k, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == k
        assert len(fields) == 10
        hs_bound, hs_mean, hs_min, hs_max = map(float, fields[1:5])
        assert hs_min <= hs_mean <= hs_max <= hs_bound
        assert float(fields[1]) == pytest.approx(
            hs_truncation_bound(5, 4, 0.2, k, require_valid=False))
    err = capsys.readouterr().err
    assert err.count("observation:") == 2


def test_reproduce_fig2_csv_and_jsonl_agree(tmp_path, monkeypatch):
    monkeypatch.setenv("IQPDAMP_THREADS", "1")
    argv = ["reproduce-fig2", "--n", "4", "--d", "3", "--p", "0.3",
            "--instances", "2", "--kmax", "3", "--seed", "5"]
    csv_out, jsonl_out = tmp_path / "f.csv", tmp_path / "f.jsonl"
    assert run(argv + ["--out", str(csv_out)]) == 0
    assert run(argv + ["--format", "jsonl", "--out", str(jsonl_out)]) == 0
    header, *lines = csv_out.read_text().splitlines()
    rows = [json.loads(ln) for ln in jsonl_out.read_text().splitlines()]
    assert len(rows) == len(lines) == 4
    for row, line in zip(rows, lines):
        assert list(row) == header.split(",")
        assert list(row.values()) == [float(x) for x in line.split(",")]


def test_worker_count_follows_cpu_affinity_and_payloads(monkeypatch, capsys):
    monkeypatch.delenv("IQPDAMP_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert cli._worker_count(10) == 3
    assert cli._worker_count(2) == 2
    monkeypatch.setenv("IQPDAMP_THREADS", "2")
    assert cli._worker_count(10) == 2
    assert cli._worker_count(1) == 1
    for above in ("3", "5", "64"):  # never more threads than CPUs
        monkeypatch.setenv("IQPDAMP_THREADS", above)
        assert cli._worker_count(10) == 3
    for bad in ("abc", "0", "-3", "2.5", ""):
        monkeypatch.setenv("IQPDAMP_THREADS", bad)
        with pytest.raises(ValueError, match=f"IQPDAMP_THREADS must be an integer >= 1, got {bad!r}"):
            cli._worker_count(10)
    monkeypatch.setenv("IQPDAMP_THREADS", "abc")
    assert run(["reproduce-fig2", "--n", "3", "--d", "2", "--instances", "1", "--kmax", "1"]) == 2
    assert "error: IQPDAMP_THREADS must be an integer >= 1, got 'abc'" in capsys.readouterr().err
    monkeypatch.delenv("IQPDAMP_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._worker_count(100) == 64
    monkeypatch.setenv("IQPDAMP_THREADS", "1000")
    assert cli._worker_count(100) == 64


def test_reproduce_fig2_output_does_not_depend_on_the_worker_count(tmp_path, capsys, monkeypatch):
    argv = ["reproduce-fig2", "--n", "4", "--d", "3", "--p", "0.3",
            "--instances", "4", "--kmax", "9", "--seed", "3"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    outputs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("IQPDAMP_THREADS", threads)
        out = tmp_path / f"fig2-{threads}.csv"
        assert run(argv + ["--out", str(out)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr()))
    assert outputs[0] == outputs[1]


def test_reproduce_fig2_skips_eigendecompositions_of_the_zero_matrix(tmp_path, monkeypatch):
    # For k >= 2n = 6 nothing is truncated; those rows need no eigvalsh call.
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setenv("IQPDAMP_THREADS", "2")
    out = tmp_path / "fig2.jsonl"
    assert run(["reproduce-fig2", "--n", "3", "--d", "4", "--p", "0.4", "--instances", "2",
                "--kmax", "9", "--format", "jsonl", "--out", str(out)]) == 0
    assert len(calls) == 3 * 6  # two random instances and the idle one, k = 0..5
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 10
    for row in rows[:6]:
        assert row["td_max"] > 0.0 and row["idle_td"] > 0.0
    for row in rows[6:]:
        assert all(row[col] == 0.0 for col in ("hs_bound", "hs_max", "td_mean", "td_min",
                                               "td_max", "idle_hs", "idle_td"))


def test_reproduce_fig2_checks_the_bound_only_where_it_is_proven(monkeypatch, capsys):
    # n(1-p)^d = 3 * 0.9^2 = 2.43, so the hs bound is proven from k = 2 on only.
    monkeypatch.setenv("IQPDAMP_THREADS", "1")
    argv = ["reproduce-fig2", "--n", "3", "--d", "2", "--instances", "1", "--kmax", "3"]
    assert run(argv) == 0
    assert "numerical failure" not in capsys.readouterr().err
    monkeypatch.setattr(cli, "hs_truncation_bound", lambda n, d, p, k: 0.0)
    assert run(argv) == 4
    assert "measured squared hs error exceeds its bound at k=[2, 3]" in capsys.readouterr().err


@pytest.mark.parametrize("n", [4, 5, 6])
def test_reproduce_fig2_tolerates_rounding_where_the_bound_is_tight(n, monkeypatch, capsys):
    # At k = 2n - 1 only the all-ones diagonal is truncated, and its squared magnitude
    # equals the bound; rounding puts the measured value a few ulps above it.
    monkeypatch.setenv("IQPDAMP_THREADS", "1")
    argv = ["reproduce-fig2", "--n", str(n), "--d", "4", "--instances", "1",
            "--kmax", str(2 * n + 1)]
    assert run(argv) == 0
    assert "numerical failure" not in capsys.readouterr().err
    monkeypatch.setattr(cli, "hs_truncation_bound",
                        lambda n, d, p, k: hs_truncation_bound(n, d, p, k) / 2.0)
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert "measured squared hs error exceeds its bound" in err
    assert f"{2 * n - 1}]" in err


def test_reproduce_fig2_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv("IQPDAMP_THREADS", "1")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["reproduce-fig2", "--n", "4", "--d", "3", "--p", "0.3",
            "--instances", "2", "--kmax", "1", "--seed", "9"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_roundtrip_circuit_serialization(tmp_path, capsys):
    c = random_circuit(3, 4, 0.3, seed=2)
    path = tmp_path / "c.txt"
    path.write_text(serialize_circuit(c))
    assert run(["validate", "--circuit", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"
