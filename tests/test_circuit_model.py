import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iqpdamp.circuit_model import (
    CPHASE,
    RZ,
    Circuit,
    CircuitFormatError,
    Gate,
    idle_circuit,
    parse_circuit,
    random_circuit,
    serialize_circuit,
    validate,
)


def test_parse_serialize_round_trip_random():
    for seed in range(100):
        c = random_circuit(n=2 + seed % 5, d=1 + seed % 7, p=0.05 + 0.009 * seed, seed=seed)
        assert parse_circuit(serialize_circuit(c)) == c


def test_parse_accepts_comments_and_blank_lines():
    text = (
        "# header comment\n"
        "iqp n=2 d=1 p=0.5\n"
        "\n"
        "layer 0  # trailing comment\n"
        "rz 0 0.25\n"
        "cphase 0 1 1.5  # no wait, qubit 0 is taken\n"
    )
    with pytest.raises(CircuitFormatError, match="used by two gates"):
        parse_circuit(text)
    ok = text.replace("cphase 0 1", "# cphase 0 1")
    c = parse_circuit(ok)
    assert c.n == 2 and c.d == 1 and c.p == 0.5
    assert c.layers[0] == (Gate(RZ, (0,), 0.25),)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("layer 0\n", "line 1"),
        ("iqp n=0 d=1 p=0.5\n", "n"),
        ("iqp n=2 d=1 p=0.5\nlayer 1\n", "layer"),
        ("iqp n=2 d=1 p=0.5\nlayer 0\nrz 5 0.1\n", "out of range"),
        ("iqp n=2 d=1 p=0.5\nlayer 0\nrz 0\n", "line 3"),
        ("iqp n=2 d=1 p=0.5\nlayer 0\nhadamard 0\n", "line 3"),
        ("iqp n=2 d=1 p=0.5\nlayer 0\ncphase 0 0 0.4\n", "duplicate"),
        ("iqp n=2 d=2 p=0.5\nlayer 0\n", "layer"),
        ("iqp n=2 d=1 p=1.5\nlayer 0\n", "p"),
        ("iqp n=2 d=1 p=0.5\nlayer 0\nrz 0 nan\n", "finite"),
        ("iqp n=2 d=1 p=0.5\nlayer 0 1\n", "line 2, column 1: layer line takes exactly one index"),
        ("iqp n=2 d=1 p=0.5\nrz 0 0.1\n", "line 2, column 1: gate line before any 'layer' marker"),
        ("# nothing but a comment\n\n", "empty document: missing 'iqp' header"),
    ],
)
def test_parse_rejects_malformed_input(text, fragment):
    with pytest.raises(CircuitFormatError, match=fragment):
        parse_circuit(text)


@pytest.mark.parametrize(
    "text,location",
    [
        ("iqp n=2 d=1 p=0.5\nlayer 0\ncphase e 1 0.5\n", "line 3, column 8"),
        ("iqp n=2 d=1 p=0.5\nlayer 0\nrz 0 p\n", "line 3, column 6"),
        ("iqp n=2 d=1 p=0.5\nlayer 0\ncphase 1 a1 a\n", "line 3, column 10"),
        ("iqp n=2 d=1 p=0.5\nlayer 0\n  rz 0 x # x\n", "line 3, column 8"),
        ("iqp n=2 d=1 p=0.5\nlayer x\n", "line 2, column 7"),
        ("iqp n=x d=1 p=0.5\n", "line 1, column 5"),
        ("iqp n=2 d=1 p=z\n", "line 1, column 13"),
        ("iqp n=2 d=1 p\n", "line 1, column 13"),
        ("  iqp n=2 d=1\n", "line 1, column 3"),
    ],
)
def test_parse_errors_point_at_the_offending_token(text, location):
    with pytest.raises(CircuitFormatError, match=f"^{location}: "):
        parse_circuit(text)


@pytest.mark.parametrize(
    "header,location,message",
    [
        ("iqp n=2 n=3 d=1 p=0.5", "line 1, column 9", "repeated header field 'n'"),
        ("iqp n=2 d=1 p=0.5 foo=bar", "line 1, column 19", "unknown header field 'foo'"),
        ("iqp n=2 d=1 p=0.5 p=0.5", "line 1, column 19", "repeated header field 'p'"),
        ("iqp n=2 =1 d=1 p=0.5", "line 1, column 9", "unknown header field ''"),
    ],
)
def test_header_fields_are_known_and_given_once(header, location, message):
    with pytest.raises(CircuitFormatError) as exc:
        parse_circuit(header + "\nlayer 0\n")
    assert str(exc.value) == f"{location}: {message}"


def test_validate_flags_layer_collision():
    with pytest.raises(CircuitFormatError, match="^layer 0: qubit 0 used by two gates$"):
        Circuit(2, 1, 0.5, ((Gate(RZ, (0,), 0.1), Gate(CPHASE, (0, 1), 0.2)),))


@pytest.mark.parametrize(
    "gate,problem",
    [
        (Gate("h", (0,), 0.1), "layer 0: unknown gate kind 'h'"),
        (Gate(RZ, (0, 1), 0.1), "layer 0: rz takes exactly 1 target, got 2"),
        (Gate(CPHASE, (0,), 0.1), "layer 0: cphase takes >= 2 targets, got 1"),
        (Gate(RZ, (0,), math.nan), "layer 0: non-finite angle nan"),
        (Gate(RZ, (2,), 0.1), "layer 0: target 2 out of range [0, 2)"),
        (Gate(CPHASE, (-1, 1), 0.1), "layer 0: target -1 out of range [0, 2)"),
        (lambda: Circuit(2, 1, 0.5, ((Gate(RZ, (1,), 0.1), Gate(RZ, (1,), 0.2)),)),
         "layer 0: qubit 1 used by two gates"),
        (lambda: Circuit(3, 5, 0.3, ((Gate(CPHASE, (0, 1), 0.4),), ())), "expected 5 layers, got 2"),
        (lambda: replace(idle_circuit(2, 3, 0.5), d=4), "expected 4 layers, got 3"),
    ],
)
def test_validate_flags_gate_kind_and_target_count(gate, problem):
    """Construction refuses what `validate` flags, with `validate`'s message.

    `gate` is the one gate of a 2-qubit, 1-layer circuit, or builds the circuit."""
    build = gate if callable(gate) else lambda: Circuit(2, 1, 0.5, ((gate,),))
    with pytest.raises(CircuitFormatError) as exc:
        build()
    assert str(exc.value) == problem


def test_validate_flags_bad_probability():
    for p in (0.0, 1.5, math.nan):
        with pytest.raises(CircuitFormatError, match=rf"^p must lie in \(0,1\], got {p}$"):
            Circuit(2, 1, p, ((),))


def test_validate_accepts_idle():
    assert validate(idle_circuit(3, 5, 0.2)) == []


@pytest.mark.parametrize(
    "args,message",
    [
        ((2, 0, 0.5), "d must be >= 1, got 0"),
        ((2, 1, 0.0), "p must lie in (0,1], got 0.0"),
        ((2, 1, 1.5), "p must lie in (0,1], got 1.5"),
        ((2, 1, 0.5, 1), "locality must be >= 2, got 1"),
        ((-3, 0, 2.0, 1), "n must be >= 1, got -3; d must be >= 1, got 0; "
                          "p must lie in (0,1], got 2.0; locality must be >= 2, got 1"),
    ],
)
def test_random_circuit_rejects_bad_parameters(args, message, monkeypatch):
    # the same words as a circuit built by hand, every problem at once, before numpy draws
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(CircuitFormatError) as exc:
        random_circuit(*args)
    assert str(exc.value) == message
    if len(args) == 3:
        with pytest.raises(CircuitFormatError, match=f"^{re.escape(message)}$"):
            Circuit(*args, ((),) * max(args[1], 0))


def test_random_circuit_deterministic_in_seed():
    a = random_circuit(6, 8, 0.3, seed=11)
    b = random_circuit(6, 8, 0.3, seed=11)
    c = random_circuit(6, 8, 0.3, seed=12)
    assert a == b
    assert a != c


def test_random_circuit_layers_cover_every_qubit_once():
    for n in (4, 5):
        c = random_circuit(n, 6, 0.2, seed=3)
        for layer in c.layers:
            targets = [q for g in layer for q in g.targets]
            assert sorted(targets) == list(range(n))


def test_random_circuit_gate_mix_is_balanced():
    c = random_circuit(8, 1000, 0.2, seed=0)
    n_cphase = sum(1 for _, g in c.gates() if g.kind == CPHASE)
    n_blocks = 4 * 1000
    assert abs(n_cphase / n_blocks - 0.5) < 0.05


def test_random_circuit_angles_in_range():
    c = random_circuit(5, 20, 0.2, seed=7)
    for _, g in c.gates():
        assert 0.0 <= g.theta < 2 * math.pi


def test_random_circuit_higher_locality_blocks():
    c = random_circuit(7, 10, 0.2, locality=3, seed=1)
    assert validate(c) == []
    sizes = {len(g.targets) for _, g in c.gates() if g.kind == CPHASE}
    assert sizes <= {3}
    assert 3 in sizes


def test_gate_locality_and_iteration():
    c = random_circuit(4, 3, 0.5, seed=0)
    seen = list(c.gates())
    assert all(0 <= li < 3 for li, _ in seen)
    assert all(g.locality == len(g.targets) for _, g in seen)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.floats(min_value=0.01, max_value=1.0), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_random_circuit_always_validates(n, d, p, seed):
    c = random_circuit(n, d, p, seed=seed)
    assert validate(c) == []
    assert parse_circuit(serialize_circuit(c)) == c
