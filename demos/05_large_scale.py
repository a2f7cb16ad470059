"""Time the low-weight propagation at n=1000 qubits, depth 100.

The dedicated two-local low-weight path evaluates every coefficient of
weight at most 2 in closed form and vectorizes all trajectory sums, so the
two-million-entry table for a thousand-qubit circuit takes seconds, both as
bare (rows, values) columns and as the table the sampler reads, which holds the same
columns behind a read-only int-keyed view. The general branch engine is exact
at any locality but would need hours here.
"""

import time

import numpy as np

from iqpdamp import (
    build_table_auto,
    fourier_table,
    g2_low_weight_coefficients,
    random_circuit,
    select_k,
)

n, d, p = 1000, 100, 0.3
circuit = random_circuit(n, d, p, seed=1)

budget = select_k(n, d, p, epsilon=0.2)
print(f"certified cutoff for epsilon=0.2 at n={n} d={d} p={p}: k={budget.k}")
print(f"trace-distance bound {budget.td_bound:.2e} <= delta {budget.delta:.4f}")

start = time.time()
rows, values = g2_low_weight_coefficients(circuit, 2)
elapsed = time.time() - start
print(f"\n{len(values)} coefficients of weight <= 2 in {elapsed:.1f} s (key rows)")

corner = values[0]  # the weight-0 entry comes first
print(f"weight-0 coefficient (kept trace at k=0): {corner.real:.6f}")
print(f"largest off-diagonal magnitude: {np.abs(values[1:]).max():.3g}")
del rows, values

start = time.time()
table = build_table_auto(circuit, 2)
built = time.time() - start
qd = fourier_table(table)
collapsed = time.time() - start - built
print(f"\ntable of {len(table)} entries in {built:.1f} s, "
      f"Fourier support of {len(qd.coeffs)} parities in {collapsed:.1f} s more")
print(f"total mass (trace of the truncated state): {qd.total_mass:.6f}")
