"""Command-line interface.

Subcommands:
  simulate        build a truncated coefficient table plus an error budget
  sample          draw outcome bitstrings from the truncated quasidistribution
  bounds          CSV of truncation bounds (hs, trace deficit, td) per cutoff k
  validate        parse/validate a circuit file, optionally against the oracle
  reproduce-fig2  bound-vs-measured-error sweep over seeded random circuits

Exit codes: 0 success, 2 usage or circuit-format error or an oversized
request, 3 certification refusal, 4 numerical failure. IQPDAMP_THREADS
overrides the reproduce-fig2 worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import Counter

import numpy as np

from .bounds import hs_truncation_bound, select_k, table_size_bound, truncation_bounds
from .circuit_model import (
    FLOAT_FMT,
    Circuit,
    CircuitFormatError,
    idle_circuit,
    parse_circuit,
    random_circuit,
    validate,
)
from .dense_oracle import DENSE_N_CAP, evolve_dense
from .errors import CertificationError, NumericalError
from .fastpath import build_table_auto
from .hw_basis import build_table
from .sampler import fourier_table, sample


# Largest table_size_bound(n, k) that simulate and sample accept. The bound also
# caps the initial-string count, sum_j 2^j C(n, j); requests above it would run
# for hours or exhaust memory.
MAX_TABLE_ENTRIES = 10 ** 7


def _fmt(x: float) -> str:
    return format(x, FLOAT_FMT)


def _parse_random_spec(text: str, parser: argparse.ArgumentParser) -> tuple[int, int, float, int]:
    parts = text.split(",")
    if len(parts) not in (3, 4):
        parser.error(f"--random expects n,d,p[,l], got {text!r}")
    try:
        n, d, p = int(parts[0]), int(parts[1]), float(parts[2])
        loc = int(parts[3]) if len(parts) == 4 else 2
    except ValueError:
        parser.error(f"--random expects n,d,p[,l] with integer n,d,l and float p, got {text!r}")
    return n, d, p, loc


def _load_circuit(args, parser: argparse.ArgumentParser) -> Circuit:
    if args.circuit is not None:
        try:
            with open(args.circuit, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            parser.error(f"cannot read circuit file: {exc}")
        return parse_circuit(text)
    n, d, p, loc = _parse_random_spec(args.random, parser)
    try:
        return random_circuit(n, d, p, locality=loc, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))


@contextlib.contextmanager
def _output(path: str | None):
    """The file at `path`, opened for writing and closed on exit; stdout when None."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _write_records(out, fmt: str | None, columns: tuple[str, ...], rows) -> None:
    """One JSON object per row for "jsonl"; otherwise CSV with floats at FLOAT_FMT."""
    if fmt == "jsonl":
        for row in rows:
            out.write(json.dumps(dict(zip(columns, row))) + "\n")
        return
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row) + "\n")


def _pick_cutoff(circuit: Circuit, args) -> tuple[int, list[str]]:
    """Resolve the cutoff and the budget-report lines from --epsilon or --k.

    Refuses a cutoff whose table could exceed MAX_TABLE_ENTRIES entries.
    """
    if args.epsilon is not None:
        budget = select_k(circuit.n, circuit.d, circuit.p, args.epsilon)
        k, report = budget.k, budget.report_lines()
    else:
        if args.k < 0:
            raise ValueError(f"--k must be >= 0, got {args.k}")
        k = args.k
        hs, deficit, td = truncation_bounds(circuit.n, circuit.d, circuit.p, k)
        report = [f"k={k}", f"hs_bound={_fmt(hs)}", f"trace_deficit_bound={_fmt(deficit)}",
                  f"td_bound={_fmt(td)}"]
    size = table_size_bound(circuit.n, k)
    if size > MAX_TABLE_ENTRIES:
        from decimal import Decimal  # formats sizes past the float range

        raise ValueError(f"cutoff k={k} at n={circuit.n} allows up to {Decimal(size):.3g} table "
                         f"entries, above the limit of {MAX_TABLE_ENTRIES:.3g}")
    return k, report


def cmd_simulate(args, parser) -> int:
    circuit = _load_circuit(args, parser)
    k, report = _pick_cutoff(circuit, args)
    table = build_table_auto(circuit, k)
    with _output(args.out) as out:
        if args.format is None:
            out.write(table.serialize())
        else:
            n = table.n
            _write_records(out, args.format, ("ket", "bra", "re", "im"),
                           ((format(ket, f"0{n}b"), format(bra, f"0{n}b"), v.real, v.imag)
                            for (ket, bra), v in table.sorted_items()))
    report_fh = sys.stderr if args.out is None else sys.stdout
    for line in report:
        print(line, file=report_fh)
    print(f"entries={len(table.data)}", file=report_fh)
    return 0


def cmd_sample(args, parser) -> int:
    if args.samples < 0:
        parser.error(f"--samples must be >= 0, got {args.samples}")
    circuit = _load_circuit(args, parser)
    k, _ = _pick_cutoff(circuit, args)
    with _output(args.out) as out:
        if args.samples == 0:
            return 0
        table = build_table_auto(circuit, k)
        qd = fourier_table(table)
        outcomes = sample(qd, args.samples, args.seed)
        if args.format is None:
            out.write("\n".join(outcomes) + "\n")
        else:
            _write_records(out, args.format, ("outcome", "count"),
                           sorted(Counter(outcomes).items()))
    return 0


def cmd_bounds(args, parser) -> int:
    circuit = _load_circuit(args, parser)
    n, d, p = circuit.n, circuit.d, circuit.p
    kmax = args.kmax if args.kmax is not None else min(2 * n, 12)
    rows = [(k, *truncation_bounds(n, d, p, k)) for k in range(kmax + 1)]
    with _output(args.out) as out:
        _write_records(out, args.format, ("k", "hs_bound", "trace_bound", "td_bound"), rows)
    return 0


def cmd_validate(args, parser) -> int:
    try:
        circuit = _load_circuit(args, parser)
    except CircuitFormatError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    problems = validate(circuit)
    if problems:
        for msg in problems:
            print(f"invalid: {msg}", file=sys.stderr)
        return 2
    if args.dense_check:
        if circuit.n > min(8, DENSE_N_CAP):
            parser.error(f"--dense-check needs n <= 8, got n={circuit.n}")
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


def _fig2_instance(payload: tuple[int, int, int, float, int]) -> tuple[list[float], list[float]]:
    """(squared HS errors, trace distances) of the weight-truncated state, per k."""
    seed, n, d, p, kmax = payload
    if seed < 0:
        circuit = idle_circuit(n, d, p)
    else:
        circuit = random_circuit(n, d, p, locality=2, seed=seed)
    rho = evolve_dense(circuit).rho
    pop = np.bitwise_count(np.arange(1 << n))
    weights = (pop[:, None] + pop[None, :]).ravel()
    binned = np.bincount(weights, weights=(np.abs(rho) ** 2).ravel(), minlength=2 * n + 1)
    hs_sq = [float(binned[k + 1:].sum()) for k in range(kmax + 1)]
    tds = []
    wmat = weights.reshape(rho.shape)
    for k in range(kmax + 1):
        delta = np.where(wmat > k, rho, 0.0)
        tds.append(0.5 * float(np.abs(np.linalg.eigvalsh(delta)).sum()))
    return hs_sq, tds


def _worker_count(payloads: int) -> int:
    """IQPDAMP_THREADS, else the CPUs this process may run on; never more than `payloads`."""
    env = os.environ.get("IQPDAMP_THREADS")
    if env is not None:
        wanted = int(env)
    elif hasattr(os, "sched_getaffinity"):
        wanted = len(os.sched_getaffinity(0))
    else:
        wanted = os.cpu_count() or 1
    return max(1, min(wanted, payloads))


def cmd_reproduce_fig2(args, parser) -> int:
    n, d, p = args.n, args.d, args.p
    kmax = args.kmax
    instances = args.instances
    if instances < 1:
        parser.error(f"--instances must be >= 1, got {instances}")
    if n > DENSE_N_CAP:
        parser.error(f"dense sweep needs n <= {DENSE_N_CAP}, got n={n}")
    seeds = np.random.SeedSequence(args.seed).generate_state(instances, dtype=np.uint64)
    payloads = [(int(s), n, d, p, kmax) for s in seeds]
    payloads.append((-1, n, d, p, kmax))  # idle reference instance
    workers = _worker_count(len(payloads))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_fig2_instance, payloads)
    else:
        results = [_fig2_instance(pl) for pl in payloads]
    idle_hs, idle_td = results.pop()
    hs = np.array([r[0] for r in results])   # instances x (kmax+1)
    td = np.array([r[1] for r in results])

    bound = [hs_truncation_bound(n, d, p, k) for k in range(kmax + 1)]

    def spread(col) -> tuple[float, float, float]:
        return float(col.mean()), float(col.min()), float(col.max())

    rows = [(k, bound[k], *spread(hs[:, k]), *spread(td[:, k]), idle_hs[k], idle_td[k])
            for k in range(kmax + 1)]
    with _output(args.out) as out:
        _write_records(out, args.format,
                       ("k", "hs_bound", "hs_mean", "hs_min", "hs_max",
                        "td_mean", "td_min", "td_max", "idle_hs", "idle_td"), rows)

    violations = [k for k in range(kmax + 1) if hs[:, k].max() > bound[k]]
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

    def add_source(sp, required=True):
        grp = sp.add_mutually_exclusive_group(required=required)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except CircuitFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
