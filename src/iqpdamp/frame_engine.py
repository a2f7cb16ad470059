"""Exact propagation of operator-frame strings through noisy IQP circuits.

A frame string is a tensor product, over qubits, of elements from the
overcomplete single-qubit frame {I(a) = |0><0| + a|1><1|, sigma_plus, sigma_minus},
carrying one global complex coefficient beta. Diagonal gates and amplitude
damping map every frame string to finitely many frame strings, so strings can
be pushed through a whole circuit in closed form: two-qubit controlled phases
never branch, an l-local controlled phase branches into at most 2^(l-1) + 1
strings, and damping rescales coefficients while contracting the diagonal
arguments a_t. Branches of one string share its slot kinds, so branches with
equal diagonal arguments are one operator up to beta; `propagate` merges them
by summing their betas, so a string's branch count stays within the product
bound stated there instead of growing exponentially with depth.

Strings are immutable: every step builds new strings and never edits its
input or the argument dict it holds, so a step that leaves the diagonal
arguments unchanged shares its input's dict instead of copying it.

beta is stored as a complex logarithm (real part: log magnitude, imaginary
part: phase) so deep circuits at large n cannot underflow; beta == 0 is the
special value log_beta.real == -inf.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations, product
from typing import Iterator, NamedTuple

import numpy as np

from .circuit_model import RZ, Circuit

PLUS = 1    # sigma_plus = |1><0|
MINUS = -1  # sigma_minus = |0><1|
DIAG = 0    # I(a) = |0><0| + a|1><1|

_LOG_ZERO = complex(-math.inf, 0.0)


class FrameString(NamedTuple):
    """One frame string: per-qubit slot kinds, diagonal arguments, and log(beta)."""

    n: int
    kinds: tuple[int, ...]
    diag_args: dict[int, complex]
    log_beta: complex

    @property
    def beta(self) -> complex:
        if self.log_beta.real == -math.inf:
            return 0.0
        return cmath.exp(self.log_beta)

    def offdiag_slots(self) -> list[tuple[int, int]]:
        """(qubit, sign) for every non-diagonal slot."""
        return [(q, k) for q, k in enumerate(self.kinds) if k != DIAG]

    def adjoint(self) -> "FrameString":
        """Slotwise Hermitian conjugate: Plus <-> Minus, conjugated args and beta."""
        return FrameString(
            self.n,
            tuple(-k for k in self.kinds),
            {q: a.conjugate() for q, a in self.diag_args.items()},
            self.log_beta.conjugate(),
        )

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n realization, for oracle cross-checks at small n."""
        out = np.array([[1.0 + 0.0j]])
        for q in range(self.n):
            k = self.kinds[q]
            if k == PLUS:
                block = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
            elif k == MINUS:
                block = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
            else:
                block = np.array([[1.0, 0.0], [0.0, self.diag_args[q]]], dtype=complex)
            out = np.kron(out, block)
        return self.beta * out


def initial_strings(n: int, max_offdiag: int) -> Iterator[FrameString]:
    """All strings in the expansion of |+><+|^n with at most max_offdiag sigmas.

    Order: off-diagonal count ascending, positions lexicographic, then sign
    pattern lexicographic (Plus before Minus). Every string has beta = 2^-n and
    all diagonal arguments equal to 1. Count: sum_j 2^j C(n, j).
    """
    if not (0 <= max_offdiag <= n):
        raise ValueError(f"max_offdiag must be in [0, {n}], got {max_offdiag}")
    log_beta = complex(-n * math.log(2.0), 0.0)
    for j in range(max_offdiag + 1):
        for positions in combinations(range(n), j):
            pos_set = set(positions)
            diag = {q: 1.0 + 0.0j for q in range(n) if q not in pos_set}
            for signs in product((PLUS, MINUS), repeat=j):
                kinds = [DIAG] * n
                for q, s in zip(positions, signs):
                    kinds[q] = s
                yield FrameString(n, tuple(kinds), diag, log_beta)


def _rotation_phase(s: FrameString, qubit: int, theta: float) -> float:
    """Phase that e^{i theta Z} on `qubit` puts on beta: -2 theta on sigma_+, +2 theta on sigma_-."""
    if not (0 <= qubit < s.n):
        raise IndexError(f"qubit {qubit} out of range [0, {s.n})")
    return -2.0 * theta * s.kinds[qubit]


def apply_single_qubit_rotation(s: FrameString, qubit: int, theta: float) -> FrameString:
    """Conjugate by e^{i theta Z} on one qubit: sigma_+/- pick up e^{-/+ 2i theta}."""
    return s._replace(log_beta=s.log_beta + complex(0.0, _rotation_phase(s, qubit, theta)))


def llocal_branch(s: FrameString, targets: tuple[int, ...], theta: float) -> list[FrameString]:
    """Conjugate by the l-local controlled phase C(theta) on `targets`.

    The gate multiplies a ket by e^{i theta} iff all target bits are 1, so its
    action on a string depends only on the slots it covers:
      - all targets diagonal: unchanged;
      - targets holding both a sigma_plus and a sigma_minus: unchanged (neither
        the ket nor the bra side can reach all-ones);
      - same-sign sigmas with m diagonal targets: m=0 is a pure phase, m=1
        absorbs the phase into the diagonal argument, m>=2 yields the identity
        branch plus 2^m branches whose diagonal arguments become +/-1 with the
        old arguments folded into the branch weights.
    Branch count is at most 2^(l-1) + 1. The matrices of the returned branches
    sum to the exact conjugation.
    """
    n, kinds, args, log_beta = s
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target in {targets}")
    diag = []
    signs = set()
    for q in targets:
        if not (0 <= q < n):
            raise IndexError(f"target {q} out of range [0, {n})")
        if kinds[q] == DIAG:
            diag.append(q)
        else:
            signs.add(kinds[q])
    if len(signs) != 1:
        return [s]
    sign = signs.pop()
    phase = cmath.exp(1j * sign * theta)

    if not diag:
        return [FrameString(n, kinds, args, log_beta + complex(0.0, sign * theta))]
    if len(diag) == 1:
        rotated = dict(args)
        rotated[diag[0]] *= phase
        return [FrameString(n, kinds, rotated, log_beta)]

    m = len(diag)
    branches = [s]  # identity branch
    prod_a = 1.0 + 0.0j
    for q in diag:
        prod_a *= args[q]
    base = (phase - 1.0) * prod_a / (2 ** m)
    if base == 0:
        return branches
    for pattern in product((0, 1), repeat=m):
        reset = dict(args)
        for q, x in zip(diag, pattern):
            reset[q] = -1.0 + 0.0j if x else 1.0 + 0.0j
        branches.append(FrameString(n, kinds, reset,
                                    log_beta + cmath.log(base * (-1) ** sum(pattern))))
    return branches


def apply_damping_layer(s: FrameString, p: float) -> FrameString:
    """One amplitude-damping layer on all qubits.

    sigma slots scale beta by sqrt(1-p) each; every diagonal slot contributes a
    factor (1 + a p) to beta and contracts a -> a(1-p)/(1+ap). A zero factor
    (only reachable at p=1 with a=-1) sends beta to exactly 0.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must lie in (0,1], got {p}")
    n, kinds, args, log_beta = s
    off = n - len(args)
    if off:
        log_beta += complex(0.5 * off * math.log1p(-p) if p < 1.0 else -math.inf, 0.0)
    shrink = 1.0 - p
    out = {}
    for q, a in args.items():
        w = 1.0 + a * p
        if w == 0:
            log_beta = _LOG_ZERO
            out[q] = 0.0j
            continue
        log_beta += cmath.log(w)
        out[q] = a * shrink / w
    return FrameString(n, kinds, out, log_beta)


def _merge_equal(branches: list[FrameString]) -> list[FrameString]:
    """Merge branches with equal diagonal arguments into one by summing their betas.

    The branches of one string share its kinds and the key order of
    `diag_args`, so equal argument tuples mean equal operators up to beta.
    Groups keep first-seen order and each sum runs in branch order, scaled by
    the group's largest |beta| so it neither underflows nor overflows. A group
    whose sum is exactly 0 is dropped.
    """
    groups: dict[tuple, list[FrameString]] = {}
    for b in branches:
        groups.setdefault(tuple(b.diag_args.values()), []).append(b)
    out: list[FrameString] = []
    for group in groups.values():
        head = group[0]
        if len(group) > 1:
            ref = max(b.log_beta.real for b in group)
            if ref == -math.inf:
                continue
            total = sum(cmath.exp(b.log_beta - ref) for b in group)
            if total == 0:
                continue
            head = head._replace(log_beta=cmath.log(total) + ref)
        out.append(head)
    return out


def propagate(s: FrameString, circuit: Circuit) -> list[FrameString]:
    """Push one string through the whole circuit.

    Per layer, controlled-phase gates are applied (branching when l >= 3 covers
    same-sign sigmas with two or more diagonal slots) and then the damping
    layer. Neither step changes a slot's kind, so every branch keeps the input
    string's kinds and single-qubit rotations give all branches the same
    phase: -2 theta per Plus slot and +2 theta per Minus slot. That phase is
    summed over the Rz gates in circuit order and added to each surviving
    branch's log beta once, at the end. Strings whose beta hits exactly 0 are
    dropped.

    Branches with equal diagonal arguments are merged (`_merge_equal`) after
    every controlled-phase gate that branched, so no two returned branches
    share their arguments. Damping needs no merge: for p < 1 it maps
    arguments injectively, and at p = 1 it zeroes every string that holds a
    sigma, the only strings that branch.

    Branch-count bound: a string propagates to at most prod_q (1 + 2 R_q)
    branches, where R_q counts the gates that branch the string (same-sign
    sigmas and at least two diagonal targets) and cover diagonal slot q. A
    branching gate either leaves slot q's argument alone or resets it to +1
    or -1, and after such a reset every later operation on the slot is the
    same in every branch. So slot q ends with the unreset argument or with
    one of two values per resetting gate, and merging keeps one branch per
    distinct tuple of arguments.
    """
    if s.n != circuit.n:
        raise ValueError(f"string has n={s.n}, circuit has n={circuit.n}")
    phase = 0.0
    work: list[FrameString] = [s]
    for layer in circuit.layers:
        for g in layer:
            if g.kind == RZ:
                phase += _rotation_phase(s, g.targets[0], g.theta)
            else:
                nxt: list[FrameString] = []
                for b in work:
                    nxt.extend(llocal_branch(b, g.targets, g.theta))
                work = nxt if len(nxt) == len(work) else _merge_equal(nxt)
        work = [apply_damping_layer(b, circuit.p) for b in work]
        work = [b for b in work if b.log_beta.real != -math.inf]
    if phase:
        work = [b._replace(log_beta=b.log_beta + complex(0.0, phase)) for b in work]
    return work


def reconstruct_dense(strings: Iterator[FrameString] | list, n: int) -> np.ndarray:
    """Sum of branch matrices; test/oracle helper for small n."""
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for b in strings:
        out += b.to_matrix()
    return out
