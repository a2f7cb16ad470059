"""Spans and counts at the boundaries between iqpdamp's modules.

`Tracer.install` wraps the functions through which the modules call one
another on the workloads' paths, and rebinds every name that refers to them in
every loaded iqpdamp module, so calls are seen however the caller imported
the function. Nothing under src/ changes. The per-string helpers inside
`frame_engine.propagate` (gate and damping steps) are left unwrapped: they run
10^5 to 10^6 times per job and a wrapper on each would dominate the traced time.

Spans (name, start, end, parent, job id) and counts are kept in memory and
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_parse(counts, fn, args, kwargs, circuit):
    counts["gates"] += sum(len(layer) for layer in circuit.layers)


def _count_select_k(counts, fn, args, kwargs, budget):
    counts["cutoff_k"] += budget.k


def _count_fast_table(counts, fn, args, kwargs, table):
    counts["fast_entries"] += len(table)


def _count_propagate(counts, fn, args, kwargs, branches):
    counts["strings_in"] += 1
    counts["branches_out"] += len(branches)


def _count_build_table(counts, fn, args, kwargs, table):
    counts["table_entries"] += len(table)


def _count_fourier(counts, fn, args, kwargs, qd):
    counts["support"] += len(qd.coeffs)


def _count_sample(counts, fn, args, kwargs, outcomes):
    bound = _bound(fn, args, kwargs)
    counts["draws"] += len(outcomes)
    # each bit decision asks for the two child marginals of the current prefix
    counts["child_marginals_requested"] += 2 * bound["qd"].n * len(outcomes)


# (module, function, counter) for every wrapped boundary; the span is named
# "<module>.<function>".
TARGETS = (
    ("circuit_model", "parse_circuit", _count_parse),
    ("bounds", "select_k", _count_select_k),
    ("fastpath", "g2_low_weight_coefficients", None),
    ("fastpath", "g2_low_weight_table", _count_fast_table),
    ("frame_engine", "propagate", _count_propagate),
    ("hw_basis", "build_table", _count_build_table),
    ("sampler", "fourier_table", _count_fourier),
    ("sampler", "sample", _count_sample),
    ("sampler", "marginal", None),
    ("dense_oracle", "evolve_dense", None),
    ("cli", "main", None),
)


class Tracer:
    """Collects spans and counts while installed; one instance per traced phase."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or None, job id]
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, self.job])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if counter is not None:
                counter(counts, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "iqpdamp") -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for module_name, func_name, counter in TARGETS:
            original = getattr(sys.modules[f"{package}.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    @contextlib.contextmanager
    def job_span(self, job_id):
        """Mark one whole job; its span is the root of the job's span tree."""
        index = len(self.spans)
        self.job = job_id
        self.spans.append(["job", time.perf_counter(), None, None, job_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()
            self.job = None

    def totals(self) -> tuple[dict, dict, dict, dict]:
        """(total time, self time, call count, direct marginal children) per span name.

        Self time is a span's duration minus the durations of its direct children.
        The last dict maps each `sampler.sample` span index to the number of
        `sampler.marginal` calls it made.
        """
        child_time = defaultdict(float)
        marginal_children = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
                if name == "sampler.marginal" and self.spans[parent][0] == "sampler.sample":
                    marginal_children[parent] += 1
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child_time[index]
            calls[name] += 1
        sample_children = {i: marginal_children[i] for i, s in enumerate(self.spans)
                           if s[0] == "sampler.sample"}
        return total, own, calls, sample_children

    def layer_metrics(self, jobs: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per job, averaged over the traced jobs."""
        total, own, calls, sample_children = self.totals()
        c = self.counts
        per_job = lambda x: x / jobs
        ratio = lambda num, den: num / den if den else 0.0
        # every sample() call makes one root marginal call, the rest are cache misses
        misses = sum(max(0, m - 1) for m in sample_children.values())
        return {
            "circuit_model.parse_s": (per_job(total["circuit_model.parse_circuit"]), "s"),
            "circuit_model.gates": (per_job(c["gates"]), "count"),
            "bounds.select_k_s": (per_job(total["bounds.select_k"]), "s"),
            "bounds.cutoff_k": (ratio(c["cutoff_k"], calls["bounds.select_k"]), "count"),
            "fastpath.coefficients_s": (per_job(total["fastpath.g2_low_weight_coefficients"]), "s"),
            "fastpath.table_self_s": (per_job(own["fastpath.g2_low_weight_table"]), "s"),
            "fastpath.entries": (per_job(c["fast_entries"]), "count"),
            "frame_engine.propagate_s": (per_job(total["frame_engine.propagate"]), "s"),
            "frame_engine.strings_in": (per_job(c["strings_in"]), "count"),
            "frame_engine.branches_out": (per_job(c["branches_out"]), "count"),
            "frame_engine.branches_per_entry": (ratio(c["branches_out"], c["table_entries"]), "ratio"),
            "hw_basis.build_table_self_s": (per_job(own["hw_basis.build_table"]), "s"),
            "hw_basis.table_entries": (per_job(c["table_entries"]), "count"),
            "sampler.fourier_s": (per_job(total["sampler.fourier_table"]), "s"),
            "sampler.support": (per_job(c["support"]), "count"),
            "sampler.sample_s": (per_job(total["sampler.sample"]), "s"),
            "sampler.draws": (per_job(c["draws"]), "count"),
            "sampler.marginal_s": (per_job(total["sampler.marginal"]), "s"),
            "sampler.marginal_calls": (per_job(calls["sampler.marginal"]), "count"),
            "sampler.prefix_cache_hit_ratio": (
                1.0 - ratio(misses, c["child_marginals_requested"])
                if c["child_marginals_requested"] else 0.0, "ratio"),
            "dense_oracle.evolve_s": (per_job(total["dense_oracle.evolve_dense"]), "s"),
            "dense_oracle.instances": (per_job(calls["dense_oracle.evolve_dense"]), "count"),
            "cli.fig2_self_s": (per_job(own["cli.main"]), "s"),
        }

    def write(self, path) -> None:
        """Write every span, then the counts, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
