"""Run every demo and check the numbers it prints; each finishes in seconds."""

import re
import runpy
from pathlib import Path

from helpers import branch_count_bound
from iqpdamp.circuit_model import random_circuit
from iqpdamp.frame_engine import PLUS, initial_strings

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


def test_simulate_and_certify_demo(capsys):
    out = run_demo("01_simulate_and_certify.py", capsys)
    worst = float(re.search(r"worst deviation from the dense reference: (\S+)", out).group(1))
    assert worst < 1e-12


def test_bounds_table_demo(capsys):
    out = run_demo("02_bounds_table.py", capsys)
    chosen = re.findall(r"-> k=\d+ +\(td bound (\S+) <= delta (\S+)\)", out)
    assert len(chosen) == 4
    for td, delta in chosen:
        assert float(td) <= float(delta)


def test_sampling_end_to_end_demo(capsys):
    out = run_demo("03_sampling_end_to_end.py", capsys)
    tvd, budget = (float(x) for x in re.search(
        r"exact sampling TVD (\S+) against a certified budget of (\S+)", out).groups())
    assert tvd < budget


def test_multiqubit_branching_demo(capsys):
    out = run_demo("04_multiqubit_branching.py", capsys)
    assert "branch count: 5 (cap for 3-local gates: 2^2 + 1 = 5)" in out
    assert len(re.findall(r"^branch \d: ", out, re.MULTILINE)) == 5
    deviation = float(re.search(r"max deviation (\S+)", out).group(1))
    assert deviation < 1e-12

    count, bound = (int(x) for x in re.search(
        r"(\d+) merged branches \(bound prod\(1 \+ 2 R_q\) = (\d+)\)", out).groups())
    circuit = random_circuit(7, 6, 0.9, locality=3, seed=3)
    s = next(x for x in initial_strings(7, 1) if x.kinds[4] == PLUS)
    assert bound == branch_count_bound(s, circuit) == 945
    assert count == 96


def test_large_scale_demo(capsys):
    out = run_demo("05_large_scale.py", capsys)
    # 1 + 2n + n(2n - 1) entries of weight <= 2 and 1 + n + n(n - 1)/2 parities at n = 1000
    assert "2001001 coefficients of weight <= 2" in out
    assert "table of 2001001 entries" in out
    assert "Fourier support of 500501 parities" in out
    assert "total mass (trace of the truncated state): 1.000000" in out
