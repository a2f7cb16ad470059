"""Build a truncated coefficient table with a certified error budget.

Draws a random two-local circuit deep enough to certify, lets the cutoff
selector pick the weight cutoff for a target sampling error, builds the
truncated table, and cross-checks a few coefficients against the dense
reference simulator (small n only).
"""

import numpy as np

from iqpdamp import (
    build_table_auto,
    depth_threshold,
    evolve_dense,
    random_circuit,
    select_k,
)

n, p, epsilon = 4, 0.4, 0.2
d = 30  # comfortably above the certifiable-depth threshold
print(f"n={n} d={d} p={p}, certifiable above depth {depth_threshold(n, p):.1f}")

budget = select_k(n, d, p, epsilon)
print("\ncertified error budget:")
for line in budget.report_lines():
    print(" ", line)

circuit = random_circuit(n, d, p, seed=11)
table = build_table_auto(circuit, budget.k)
print(f"\ntruncated table: {len(table)} coefficients at cutoff k={budget.k}")
print(f"kept trace: {table.trace().real:.6f}")
print(f"hermiticity defect: {table.hermiticity_defect():.3g}")

rho = evolve_dense(circuit).rho
worst = max(abs(v - rho[ket, bra]) for (ket, bra), v in table.data.items())
print(f"\nworst deviation from the dense reference: {worst:.3g}")

print("\nlargest coefficients:")
for ks, bs, re, im in sorted(table.text_rows(), key=lambda row: -abs(complex(*row[2:])))[:5]:
    print(f"  |{ks}><{bs}|  {re:+.6f}{im:+.6f}j")
