"""Command-line interface.

Subcommands:
  simulate        build a truncated coefficient table plus an error budget
  sample          draw outcome bitstrings from the truncated quasidistribution
  bounds          CSV of truncation bounds (hs, trace deficit, td) per cutoff k
  validate        parse/validate a circuit file, optionally against the oracle
  reproduce-fig2  bound-vs-measured-error sweep over seeded random circuits

Exit codes: 0 success, 2 usage or circuit-format error or an oversized
request, 3 certification refusal, 4 numerical failure. Commands raise; `main`
alone turns a refusal into its code and one stderr line (`error: <message>`
for code 2), and only argparse's syntax errors print usage and raise
SystemExit(2). reproduce-fig2 runs its instances on threads in one process,
one per CPU; IQPDAMP_THREADS (an integer >= 1) lowers the thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import Counter

import numpy as np

from .bounds import (
    ErrorBudget,
    chernoff_min_keep,
    hs_truncation_bound,
    select_k,
    table_size_bound,
    truncation_bounds,
)
from .circuit_model import (
    FLOAT_FMT,
    Circuit,
    CircuitFormatError,
    idle_circuit,
    parse_circuit,
    random_circuit,
)
from .dense_oracle import DENSE_N_CAP, evolve_dense
from .errors import CertificationError, NumericalError
from .fastpath import build_table_auto
from .hw_basis import build_table
from .sampler import SAMPLE_N_CAP, fourier_table, sample


# Largest table_size_bound(n, k) that simulate and sample accept. The bound also
# caps the initial-string count, sum_j 2^j C(n, j); requests above it would run
# for hours or exhaust memory.
MAX_TABLE_ENTRIES = 10 ** 7

# Relative slack of reproduce-fig2's bound check, at float-rounding scale. At
# k = 2n - 1 the only truncated entry is the all-ones diagonal, whose squared
# magnitude equals hs_truncation_bound exactly, and rounding puts the measured
# value a few ulps above it.
HS_CHECK_RTOL = 1e-12

# Largest --kmax that bounds and reproduce-fig2 accept. Every row past k = 2n
# is zero, and 10^4 rows cover every nonzero one up to n = 5000.
_MAX_KMAX = 10 ** 4

# Largest n that reproduce-fig2 accepts. Each sweep thread holds about 57 * 4^n
# bytes at once: rho (16), the weight matrix (8), the mask (1), the masked copy
# (16) and LAPACK's copy of it (16). That is 0.96 GB at n = 12, 3.8 GB at n = 13.
_FIG2_N_CAP = 12


def _fmt(x: float) -> str:
    return format(x, FLOAT_FMT)


def _parse_random_spec(text: str) -> tuple[int, int, float, int]:
    parts = text.split(",")
    if len(parts) not in (3, 4):
        raise ValueError(f"--random expects n,d,p[,l], got {text!r}")
    try:
        n, d, p = int(parts[0]), int(parts[1]), float(parts[2])
        loc = int(parts[3]) if len(parts) == 4 else 2
    except ValueError:
        raise ValueError(f"--random expects n,d,p[,l] with integer n,d,l and float p, "
                         f"got {text!r}") from None
    return n, d, p, loc


def _load_circuit(args) -> Circuit:
    if args.circuit is not None:
        try:
            with open(args.circuit, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read circuit file: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"cannot read circuit file: {args.circuit}: {exc}") from None
        return parse_circuit(text)
    n, d, p, loc = _parse_random_spec(args.random)
    return random_circuit(n, d, p, locality=loc, seed=args.seed)


def _output(path: str | None):
    """The file at `path`, opened for writing now, as a context manager; stdout when None.

    Raises ValueError if it cannot be opened, so callers open it before the work."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write output file: {exc}") from None


def _write_records(out, fmt: str | None, columns: tuple[str, ...], rows) -> None:
    """One JSON object per row for "jsonl"; otherwise CSV with floats at FLOAT_FMT."""
    if fmt == "jsonl":
        for row in rows:
            out.write(json.dumps(dict(zip(columns, row))) + "\n")
        return
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row) + "\n")


def _checked_kmax(kmax: int) -> int:
    if kmax < 0:
        raise ValueError(f"--kmax must be >= 0, got {kmax}")
    if kmax > _MAX_KMAX:
        raise ValueError(f"--kmax must be <= {_MAX_KMAX}, got {kmax}; "
                         f"every row past k = 2n is zero")
    return kmax


def _pick_cutoff(circuit: Circuit, args) -> tuple[int, list[str]]:
    """Resolve the cutoff and the budget-report lines from --epsilon or --k.

    Refuses a cutoff whose table could exceed MAX_TABLE_ENTRIES entries.
    """
    if args.epsilon is not None:
        budget = select_k(circuit.n, circuit.d, circuit.p, args.epsilon)
    else:
        if not 0 <= args.k <= 2 * circuit.n:
            raise ValueError(f"--k must lie in [0, 2n] = [0, {2 * circuit.n}], got {args.k}")
        budget = ErrorBudget(None, None, args.k, None, None,
                             *truncation_bounds(circuit.n, circuit.d, circuit.p, args.k))
    k = budget.k
    size = table_size_bound(circuit.n, k)
    if size > MAX_TABLE_ENTRIES:
        from decimal import Decimal  # formats sizes past the float range

        raise ValueError(f"cutoff k={k} at n={circuit.n} allows up to {Decimal(size):.3g} table "
                         f"entries, above the limit of {MAX_TABLE_ENTRIES:.3g}")
    return k, budget.report_lines()


def _print_report(lines: list[str], path: str | None) -> None:
    """Print a run's report: to stderr when the output goes to stdout, else to stdout."""
    report_fh = sys.stderr if path is None else sys.stdout
    for line in lines:
        print(line, file=report_fh)


def cmd_simulate(args) -> int:
    circuit = _load_circuit(args)
    k, report = _pick_cutoff(circuit, args)
    with _output(args.out) as out:
        table = build_table_auto(circuit, k)
        if args.format is None:
            out.writelines(table.serialize())
        else:
            _write_records(out, args.format, ("ket", "bra", "re", "im"), table.text_rows())
    _print_report([*report, f"entries={len(table.data)}"], args.out)
    return 0


def cmd_sample(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    circuit = _load_circuit(args)
    if circuit.n > SAMPLE_N_CAP:
        raise ValueError(f"sample needs n <= {SAMPLE_N_CAP}, got n={circuit.n}")
    k, report = _pick_cutoff(circuit, args)
    with _output(args.out) as out:
        if args.samples:
            qd = fourier_table(build_table_auto(circuit, k))
            outcomes = sample(qd, args.samples, args.seed)
            if args.format is None:
                out.write("\n".join(outcomes) + "\n")
            else:
                _write_records(out, args.format, ("outcome", "count"),
                               sorted(Counter(outcomes).items()))
            report.append(f"support={len(qd.coeffs)}")
    _print_report(report, args.out)
    return 0


def cmd_bounds(args) -> int:
    circuit = _load_circuit(args)
    n, d, p = circuit.n, circuit.d, circuit.p
    kmax = min(2 * n, 12) if args.kmax is None else _checked_kmax(args.kmax)
    rows = ((k, *truncation_bounds(n, d, p, k)) for k in range(kmax + 1))
    with _output(args.out) as out:
        _write_records(out, args.format, ("k", "hs_bound", "trace_bound", "td_bound"), rows)
    return 0


def cmd_validate(args) -> int:
    try:
        circuit = _load_circuit(args)
    except CircuitFormatError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    if args.dense_check:
        if circuit.n > min(8, DENSE_N_CAP):
            raise ValueError(f"--dense-check needs n <= 8, got n={circuit.n}")
        table = build_table(circuit, 2 * circuit.n)
        rho = evolve_dense(circuit).rho
        worst = max(abs(v - rho[ket, bra]) for (ket, bra), v in table.data.items())
        if worst > 1e-8:
            raise NumericalError(
                f"frame propagation disagrees with the dense oracle by {worst:.3g}")
        print(f"ok (dense check, max deviation {worst:.3g})")
        return 0
    print("ok")
    return 0


def _fig2_instance(circuit: Circuit, kmax: int) -> tuple[list[float], list[float]]:
    """(squared HS errors, trace distances) of the weight-truncated state, per k.

    For k >= 2n nothing is truncated, so those trace distances are 0.0 without
    an eigendecomposition.
    """
    n = circuit.n
    rho = evolve_dense(circuit).rho
    pop = np.bitwise_count(np.arange(1 << n))
    weights = (pop[:, None] + pop[None, :]).ravel()
    binned = np.bincount(weights, weights=(np.abs(rho) ** 2).ravel(), minlength=2 * n + 1)
    hs_sq = [float(binned[k + 1:].sum()) for k in range(kmax + 1)]
    wmat = weights.reshape(rho.shape)
    tds = [0.5 * float(np.abs(np.linalg.eigvalsh(np.where(wmat > k, rho, 0.0))).sum())
           for k in range(min(kmax + 1, 2 * n))]
    return hs_sq, tds + [0.0] * (kmax + 1 - len(tds))


def _worker_count(instances: int) -> int:
    """The CPUs this process may run on, or fewer if IQPDAMP_THREADS asks; never more than `instances`.

    Raises ValueError when IQPDAMP_THREADS is set to anything but an integer >= 1.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    env = os.environ.get("IQPDAMP_THREADS")
    if env is not None:
        try:
            wanted = int(env)
        except ValueError:
            wanted = 0
        if wanted < 1:
            raise ValueError(f"IQPDAMP_THREADS must be an integer >= 1, got {env!r}")
        cpus = min(cpus, wanted)
    return min(cpus, instances)


def cmd_reproduce_fig2(args) -> int:
    n, d, p = args.n, args.d, args.p
    instances = args.instances
    if instances < 1:
        raise ValueError(f"--instances must be >= 1, got {instances}")
    kmax = _checked_kmax(args.kmax)
    idle = idle_circuit(n, d, p)  # the sweep's idle reference instance
    if n > _FIG2_N_CAP:
        raise ValueError(f"dense sweep needs n <= {_FIG2_N_CAP}, got n={n}")
    seeds = np.random.SeedSequence(args.seed).generate_state(instances, dtype=np.uint64)
    circuits = [random_circuit(n, d, p, locality=2, seed=int(s)) for s in seeds] + [idle]
    workers = _worker_count(len(circuits))
    from concurrent.futures import ThreadPoolExecutor

    def spread(col) -> tuple[float, float, float]:
        return float(col.mean()), float(col.min()), float(col.max())

    with _output(args.out) as out:
        # numpy releases the GIL inside LAPACK and its elementwise loops, so threads overlap.
        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(_fig2_instance, circuits, [kmax] * len(circuits)))
        idle_hs, idle_td = results.pop()
        hs = np.array([r[0] for r in results])   # instances x (kmax+1)
        td = np.array([r[1] for r in results])
        bound = [hs_truncation_bound(n, d, p, k) for k in range(kmax + 1)]
        rows = [(k, bound[k], *spread(hs[:, k]), *spread(td[:, k]), idle_hs[k], idle_td[k])
                for k in range(kmax + 1)]
        _write_records(out, args.format,
                       ("k", "hs_bound", "hs_mean", "hs_min", "hs_max",
                        "td_mean", "td_min", "td_max", "idle_hs", "idle_td"), rows)

    # The hs bound is proven only in the Chernoff regime k + 1 >= n(1-p)^d.
    keep = chernoff_min_keep(n, d, p)
    violations = [k for k in range(kmax + 1)
                  if k + 1 >= keep and hs[:, k].max() > bound[k] * (1.0 + HS_CHECK_RTOL)]
    dominance = [k for k in range(kmax + 1) if idle_hs[k] < hs[:, k].max()]
    td_above = [k for k in range(kmax + 1) if td[:, k].mean() > bound[k]]
    if dominance:
        print(f"observation: idle error falls below the worst random instance at "
              f"k={dominance}", file=sys.stderr)
    else:
        print("observation: idle error dominates every random instance at all k",
              file=sys.stderr)
    if td_above:
        print(f"observation: mean trace distance exceeds the hs bound at k={td_above}",
              file=sys.stderr)
    else:
        print("observation: mean trace distance stays below the hs bound at all k",
              file=sys.stderr)
    if violations:
        raise NumericalError(
            f"measured squared hs error exceeds its bound at k={violations}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iqpdamp",
        description="Truncated-frame simulation of IQP circuits under amplitude damping")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(sp):
        grp = sp.add_mutually_exclusive_group(required=True)
        grp.add_argument("--circuit", metavar="FILE", help="circuit file to load")
        grp.add_argument("--random", metavar="n,d,p[,l]",
                         help="draw a random circuit with these parameters")

    def add_cutoff(sp):
        grp = sp.add_mutually_exclusive_group(required=True)
        grp.add_argument("--epsilon", type=float,
                         help="target total-variation error; picks k and certifies")
        grp.add_argument("--k", type=int, help="explicit weight cutoff")

    def add_common(sp, output=True):
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for random circuits and sampling (default 0)")
        if output:
            sp.add_argument("--out", metavar="PATH", help="output file (default stdout)")
            sp.add_argument("--format", choices=("csv", "jsonl"), default=None,
                            help="structured output format (default: native text)")

    sp = sub.add_parser("simulate", help="write the truncated coefficient table")
    add_source(sp)
    add_cutoff(sp)
    add_common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sample", help="draw outcome bitstrings")
    add_source(sp)
    add_cutoff(sp)
    add_common(sp)
    sp.add_argument("--samples", type=int, required=True, metavar="N",
                    help="number of outcomes to draw")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("bounds", help="CSV of truncation bounds per cutoff")
    add_source(sp)
    add_common(sp)
    sp.add_argument("--kmax", type=int, default=None,
                    help="largest cutoff to tabulate (default min(2n, 12))")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("validate", help="check a circuit file")
    add_source(sp)
    add_common(sp, output=False)
    sp.add_argument("--dense-check", action="store_true",
                    help="also compare full-cutoff propagation to the dense oracle (n <= 8)")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("reproduce-fig2",
                        help="bound-vs-error sweep over seeded random circuits")
    add_common(sp)
    sp.add_argument("--n", type=int, default=10)
    sp.add_argument("--d", type=int, default=10)
    sp.add_argument("--p", type=float, default=0.1)
    sp.add_argument("--instances", type=int, default=200)
    sp.add_argument("--kmax", type=int, default=6)
    sp.set_defaults(func=cmd_reproduce_fig2)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:  # every subcommand takes --seed; numpy would refuse it mid-run
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except CertificationError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # CircuitFormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
