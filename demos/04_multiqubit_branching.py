"""Show how a 3-local controlled phase splits one frame string into branches.

Two-local gates never branch, so this is the first place the branch algebra
appears: a raising slot plus two diagonal slots yields the identity branch
plus four sign-pattern branches. The branch matrices must sum to the exact
dense conjugation.

Through a whole circuit, branches with equal diagonal arguments are merged,
so one string's branch count stays within prod_q (1 + 2 R_q), where R_q
counts the gates that branch the string and cover its diagonal slot q.
"""

import math

import numpy as np

from iqpdamp import (
    DIAG,
    PLUS,
    FrameString,
    initial_strings,
    llocal_branch,
    propagate,
    random_circuit,
    reconstruct_dense,
)

KIND_NAME = {1: "raise", -1: "lower", 0: "diag"}

s = FrameString(
    n=3,
    kinds=(PLUS, DIAG, DIAG),
    diag_args={1: 0.7 + 0.1j, 2: -0.3 + 0.4j},
    log_beta=0.0 + 0.0j,
)
theta = math.pi / 3

branches = llocal_branch(s, (0, 1, 2), theta)
print(f"input slots: {[KIND_NAME[k] for k in s.kinds]}, theta = pi/3")
print(f"branch count: {len(branches)} (cap for 3-local gates: 2^2 + 1 = 5)\n")
for i, b in enumerate(branches):
    args = {q: f"{a.real:+.3f}{a.imag:+.3f}j" for q, a in sorted(b.diag_args.items())}
    print(f"branch {i}: beta={b.beta:+.4f}  args={args}")

# dense check: conjugate by the diagonal unitary that phases the all-ones state
diag = np.ones(8, dtype=complex)
diag[7] = np.exp(1j * theta)
u = np.diag(diag)
expected = u @ s.to_matrix() @ u.conj().T
got = reconstruct_dense(branches, 3)
print(f"\nbranch sum vs dense conjugation: max deviation "
      f"{np.max(np.abs(got - expected)):.3g}")

# one raising slot pushed through a whole 3-local circuit
circuit = random_circuit(7, 6, 0.9, locality=3, seed=3)
s = next(x for x in initial_strings(7, 1) if x.kinds[4] == PLUS)
resets = [0] * circuit.n
for _, g in circuit.gates():
    kinds = [s.kinds[q] for q in g.targets]
    if g.kind == "cphase" and PLUS in kinds and kinds.count(DIAG) >= 2:
        for q in g.targets:
            if s.kinds[q] == DIAG:
                resets[q] += 1
bound = math.prod(1 + 2 * r for r in resets)
branches = propagate(s, circuit)
print(f"\n3-local circuit n=7, d=6, raise on qubit 4: "
      f"{len(branches)} merged branches (bound prod(1 + 2 R_q) = {bound})")
