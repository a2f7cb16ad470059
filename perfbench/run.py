"""Benchmark of iqpdamp: certified sampling, table simulation and the Fig. 2 sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of sample_2local, branch_3local, table_2local_large, fig2_sweep,
or `all` to run the four in turn. Run from anywhere; the program is imported
from the src/ directory next to this one. The run builds its jobs from the
seed, repeats whole rounds of them until S seconds of job time have passed,
checks every output, and prints each metric with its unit; the last line of
standard output is one JSON object {correct, attempted, failed, metrics}.
With --trace 0 the metrics are the end-to-end ones. With --trace 1 the run
does one warm-up round, then alternates untraced and traced rounds, prints the
per-layer metrics and the tracing overhead, and writes the spans to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 4      # fresh interpreters timed on top of this run's own set-up
PROBE_TIMEOUT_S = 60

E2E_UNITS = {"setup_s": "s", "job_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MB"}


def timed_setup(workload: str, seed: int):
    """Import the program and build the workload's jobs; (package, jobs, seconds)."""
    start = time.perf_counter()
    import iqpdamp
    import iqpdamp.cli  # noqa: F401  (reproduce-fig2 is reached through the CLI)

    jobs = inputs.make_jobs(iqpdamp, workload, seed)
    return iqpdamp, jobs, time.perf_counter() - start


def probe_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter running this script."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Outcomes:
    """Attempt and failure counts, check results, and the fingerprint of each job."""

    def __init__(self, api, pipeline, workload: str):
        self.api, self.pipeline, self.workload = api, pipeline, workload
        self.attempted = self.failed = 0
        self.rounds = 0
        self.problems: list[str] = []
        self.fingerprints: dict[int, object] = {}

    def examine(self, index: int, job, result) -> None:
        """Check a job's first output in full; a repeat must reproduce it exactly."""
        pipeline = self.pipeline
        expected = self.fingerprints.get(index)
        if expected is None:
            self.problems += [f"{self.workload} job {index}: {msg}"
                              for msg in pipeline.check_result(self.api, self.workload, job, result)]
            self.fingerprints[index] = pipeline.fingerprint(job, result)
        elif pipeline.fingerprint(job, result) != expected:
            self.problems.append(f"{self.workload} job {index}: a repeat gave a different output")


def run_rounds(job_list, seconds: float, outcomes: Outcomes, tracer=None) -> list:
    """Run whole rounds of the jobs, at least one, until `seconds` of job time have passed.

    Returns (seconds, items) for each job that did not fail.
    """
    pipeline = outcomes.pipeline
    done, spent = [], 0.0
    while True:
        for index, job in enumerate(job_list):
            outcomes.attempted += 1
            start = time.perf_counter()
            try:
                with tracer.job_span(f"{outcomes.rounds}.{index}") if tracer else nullcontext():
                    result = pipeline.run_job(outcomes.api, job)
            except Exception:  # a failed job is counted and the run goes on
                spent += time.perf_counter() - start
                outcomes.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            elapsed = time.perf_counter() - start
            spent += elapsed
            done.append((elapsed, pipeline.items(job, result)))
            outcomes.examine(index, job, result)
            del result
        outcomes.rounds += 1
        if spent >= seconds:
            return done


def peak_rss_mb(workers: int) -> float:
    """Peak resident set of this process, plus `workers` times the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * child) / 1024.0


def end_to_end(args, job_list, setup_s, outcomes) -> dict:
    workers = 0
    if args.workload == "fig2_sweep":
        workers = len(os.sched_getaffinity(0))
        os.environ["IQPDAMP_THREADS"] = str(workers)
    done = run_rounds(job_list, args.seconds, outcomes)
    rss = peak_rss_mb(workers)  # before the probes below start child processes
    setups = [setup_s] + [probe_setup_seconds(args.workload, args.seed)
                          for _ in range(SETUP_PROBES)]
    if args.workload == "sample_2local":
        outcomes.problems += [f"down-sized instance: {msg}"
                              for msg in outcomes.pipeline.check_small_instance(outcomes.api, args.seed)]
    # Means over the whole run, not medians: the machine's speed can switch
    # between levels for seconds at a time, and a median over rounds snaps to
    # one level or the other. On branch_3local over ten seeds the median round
    # spread 0.28 (quartile distance over median), the run's throughput 0.18.
    total_time = sum(t for t, _ in done)
    values = {
        "setup_s": statistics.median(setups),
        "job_s": total_time / len(done) if done else 0.0,
        "items_per_s": sum(n for _, n in done) / total_time if total_time else 0.0,
        "peak_rss_mb": rss,
    }
    return {name: (value, E2E_UNITS[name]) for name, value in values.items()}


def per_layer(args, job_list, outcomes) -> dict:
    from tracing import Tracer

    if args.workload == "fig2_sweep":
        os.environ["IQPDAMP_THREADS"] = "1"  # every span stays in this process
    # A warm-up round first, so neither side pays the first execution's
    # allocations; then traced and untraced rounds alternate, so both sides
    # see the same machine conditions and their difference is the overhead.
    run_rounds(job_list, 0.0, outcomes)
    tracer = Tracer()
    plain, traced = [], []
    job_time = lambda runs: sum(t for t, _ in runs)
    while job_time(plain) + job_time(traced) < args.seconds or not traced:
        plain += run_rounds(job_list, 0.0, outcomes)
        tracer.install()
        try:
            traced += run_rounds(job_list, 0.0, outcomes, tracer)
        finally:
            tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    metrics = tracer.layer_metrics(max(1, len(traced)))
    overhead = (job_time(traced) / job_time(plain) - 1.0) * 100.0 if job_time(plain) else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics


def run_all(args) -> int:
    """Run every workload in its own process and print one line per metric."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in inputs.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        report = json.loads(done.stdout.strip().splitlines()[-1])
        correct &= report["correct"]
        attempted += report["attempted"]
        failed += report["failed"]
        for name, metric in report["metrics"].items():
            metrics[f"{workload}.{name}"] = metric
            print(f"{workload:20s} {name:34s} {metric['value']:.6g} {metric['unit']}")
        print(f"{workload:20s} jobs attempted {report['attempted']}, failed {report['failed']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "iqpdamp" / "__init__.py").is_file():
        print(f"error: no iqpdamp sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread per process, fixed before numpy loads: with the library
    # default every sweep worker starts a pool as wide as the machine, and on
    # 2 CPUs the oversubscribed sweep runs 3-5x slower and erratically.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    api, job_list, setup_s = timed_setup(args.workload, args.seed)
    if Path(api.__file__).resolve().parent != SRC / "iqpdamp":
        print(f"error: imported iqpdamp from {api.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        print(repr(setup_s))
        return 0

    import jobs  # numpy-backed checks; imported only after the timed set-up

    outcomes = Outcomes(api, jobs, args.workload)
    if args.trace:
        metrics = per_layer(args, job_list, outcomes)
    else:
        metrics = end_to_end(args, job_list, setup_s, outcomes)
    for message in outcomes.problems:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} jobs attempted {outcomes.attempted}, failed {outcomes.failed}")
    print(json.dumps({
        "correct": not outcomes.problems,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
