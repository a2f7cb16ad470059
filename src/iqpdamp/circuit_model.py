"""Noisy IQP circuit representation, validation, text format, and random generation.

A circuit is d layers of commuting diagonal gates (single-qubit Z rotations and
multi-qubit controlled phases) acting on n qubits, with an amplitude-damping
channel of strength p applied to every qubit after each layer. Every `Circuit`
is valid by construction: `validate` is the one home of that rule, and building
a circuit it flags raises `CircuitFormatError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

RZ = "rz"
CPHASE = "cphase"

TWO_PI = 2.0 * math.pi

# 17 significant digits round-trips any float64 exactly
FLOAT_FMT = ".17g"


class CircuitFormatError(ValueError):
    """Raised on malformed circuits and circuit documents (with line/column info for the latter)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Gate:
    """One diagonal gate: kind RZ (1 target) or CPHASE (2..l targets), angle in radians."""

    kind: str
    targets: tuple[int, ...]
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))

    @property
    def locality(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class Circuit:
    """Immutable n-qubit, d-layer noisy IQP circuit with damping strength p.

    Raises CircuitFormatError, carrying every problem `validate` reports, if invalid."""

    n: int
    d: int
    p: float
    layers: tuple[tuple[Gate, ...], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(tuple(layer) for layer in self.layers))
        problems = validate(self)
        if problems:
            raise CircuitFormatError("; ".join(problems))

    def gates(self):
        """Yield (layer_index, gate) over the whole circuit."""
        for i, layer in enumerate(self.layers):
            for g in layer:
                yield i, g


def _header_problems(n: int, d: int, p: float) -> list[str]:
    """Every violation of the rules on n, d and p alone, as `validate` words them."""
    problems = []
    if n < 1:
        problems.append(f"n must be >= 1, got {n}")
    if d < 1:
        problems.append(f"d must be >= 1, got {d}")
    if not (0.0 < p <= 1.0):
        problems.append(f"p must lie in (0,1], got {p}")
    return problems


def validate(circuit: Circuit) -> list[str]:
    """Return every invariant violation as a human-readable string; empty means valid.

    `Circuit` runs this on construction, so a built circuit always passes."""
    problems = _header_problems(circuit.n, circuit.d, circuit.p)
    if len(circuit.layers) != circuit.d:
        problems.append(f"expected {circuit.d} layers, got {len(circuit.layers)}")
    for li, layer in enumerate(circuit.layers):
        seen: set[int] = set()
        for g in layer:
            if g.kind not in (RZ, CPHASE):
                problems.append(f"layer {li}: unknown gate kind {g.kind!r}")
                continue
            if g.kind == RZ and len(g.targets) != 1:
                problems.append(f"layer {li}: rz takes exactly 1 target, got {len(g.targets)}")
            if g.kind == CPHASE and len(g.targets) < 2:
                problems.append(f"layer {li}: cphase takes >= 2 targets, got {len(g.targets)}")
            if len(set(g.targets)) != len(g.targets):
                problems.append(f"layer {li}: duplicate target in {g.targets}")
            for q in g.targets:
                if not (0 <= q < circuit.n):
                    problems.append(f"layer {li}: target {q} out of range [0, {circuit.n})")
                elif q in seen:
                    problems.append(f"layer {li}: qubit {q} used by two gates")
                else:
                    seen.add(q)
            if not math.isfinite(g.theta):
                problems.append(f"layer {li}: non-finite angle {g.theta}")
    return problems


def serialize_circuit(circuit: Circuit) -> str:
    """Render the line-oriented text format; floats at 17 significant digits."""
    lines = [f"iqp n={circuit.n} d={circuit.d} p={format(circuit.p, FLOAT_FMT)}"]
    for li, layer in enumerate(circuit.layers):
        lines.append(f"layer {li}")
        for g in layer:
            qubits = " ".join(str(q) for q in g.targets)
            lines.append(f"{g.kind} {qubits} {format(g.theta, FLOAT_FMT)}")
    return "\n".join(lines) + "\n"


def _column(line: str, index: int) -> int:
    """1-based column of the index-th whitespace-separated token of `line`."""
    tokens = line.split()
    at = 0
    for token in tokens[:index]:
        at = line.index(token, at) + len(token)
    return line.index(tokens[index], at) + 1


def _parse_int(token: str, index: int, line: str, lineno: int, what: str) -> int:
    """int(token); on failure a CircuitFormatError at the index-th token of `line`."""
    try:
        return int(token)
    except ValueError:
        raise CircuitFormatError(f"expected integer {what}, got {token!r}", lineno,
                                 _column(line, index)) from None


def _parse_float(token: str, index: int, line: str, lineno: int, what: str) -> float:
    """float(token); on failure a CircuitFormatError at the index-th token of `line`."""
    try:
        return float(token)
    except ValueError:
        raise CircuitFormatError(f"expected number {what}, got {token!r}", lineno,
                                 _column(line, index)) from None


def parse_circuit(text: str) -> Circuit:
    """Parse a circuit document. Raises CircuitFormatError with line/column on bad input.

    A column is that of the offending token, or of the line's first token when
    the line as a whole is at fault.
    """
    header: tuple[int, int, float] | None = None
    layers: list[list[Gate]] = []
    current: list[Gate] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = line.split()

        def fail(message: str, index: int = 0) -> CircuitFormatError:
            return CircuitFormatError(message, lineno, _column(line, index))

        if header is None:
            if tokens[0] != "iqp":
                raise fail(f"expected header 'iqp n=... d=... p=...', got {tokens[0]!r}")
            fields = {}
            for i, tok in enumerate(tokens[1:], start=1):
                if "=" not in tok:
                    raise fail(f"malformed header field {tok!r}", i)
                key, _, val = tok.partition("=")
                if key in fields or key not in ("n", "d", "p"):
                    raise fail(f"{'repeated' if key in fields else 'unknown'} header field {key!r}", i)
                fields[key] = (val, i)
            for key in ("n", "d", "p"):
                if key not in fields:
                    raise fail(f"header missing {key}=")
            n = _parse_int(*fields["n"], line, lineno, "n")
            d = _parse_int(*fields["d"], line, lineno, "d")
            p = _parse_float(*fields["p"], line, lineno, "p")
            header = (n, d, p)
            continue

        if tokens[0] == "layer":
            if len(tokens) != 2:
                raise fail("layer line takes exactly one index")
            idx = _parse_int(tokens[1], 1, line, lineno, "layer index")
            if idx != len(layers):
                raise fail(f"layer indices must be consecutive; expected {len(layers)}, got {idx}")
            current = []
            layers.append(current)
            continue

        if tokens[0] in (RZ, CPHASE):
            if current is None:
                raise fail("gate line before any 'layer' marker")
            if len(tokens) < 3:
                raise fail(f"{tokens[0]} line needs targets and an angle")
            targets = tuple(_parse_int(t, i, line, lineno, "qubit")
                            for i, t in enumerate(tokens[1:-1], start=1))
            theta = _parse_float(tokens[-1], len(tokens) - 1, line, lineno, "angle")
            current.append(Gate(tokens[0], targets, theta))
            continue

        raise fail(f"unrecognized directive {tokens[0]!r}")

    if header is None:
        raise CircuitFormatError("empty document: missing 'iqp' header")
    n, d, p = header
    return Circuit(n=n, d=d, p=p, layers=tuple(tuple(l) for l in layers))


def random_circuit(n: int, d: int, p: float, locality: int = 2, seed: int = 0) -> Circuit:
    """Draw a circuit from the random ensemble, deterministically in seed.

    Per layer, qubits are shuffled and grouped into blocks of `locality`; each
    block receives, with probability 1/2 each, either one controlled-phase gate
    on the whole block or independent Z rotations on every block qubit. Angles
    are uniform in [0, 2pi). A leftover block of one qubit gets a single Rz.
    Bad parameters raise CircuitFormatError naming every problem, before any
    random draw.
    """
    problems = _header_problems(n, d, p)
    if locality < 2:
        problems.append(f"locality must be >= 2, got {locality}")
    if problems:
        raise CircuitFormatError("; ".join(problems))

    rng = np.random.default_rng(seed)
    layers: list[tuple[Gate, ...]] = []
    for _ in range(d):
        order = [int(q) for q in rng.permutation(n)]
        gates: list[Gate] = []
        for start in range(0, n, locality):
            block = tuple(order[start:start + locality])
            if len(block) == 1:
                gates.append(Gate(RZ, block, float(rng.uniform(0.0, TWO_PI))))
            elif rng.random() < 0.5:
                gates.append(Gate(CPHASE, block, float(rng.uniform(0.0, TWO_PI))))
            else:
                for q in block:
                    gates.append(Gate(RZ, (q,), float(rng.uniform(0.0, TWO_PI))))
        layers.append(tuple(gates))
    return Circuit(n=n, d=d, p=p, layers=tuple(layers))


def idle_circuit(n: int, d: int, p: float) -> Circuit:
    """Circuit with d empty layers: damping only. The worst case for truncation error."""
    return Circuit(n=n, d=d, p=p, layers=tuple(() for _ in range(d)))
