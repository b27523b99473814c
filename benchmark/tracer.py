"""Spans around the calls into each eerpms module, recorded from outside the package.

`Tracer.install` replaces the module attributes through which `simulation`,
`bat`, `otsu` and `experiments` reach one another (and through which the
benchmark calls them) with wrappers that record a span per call: parent span,
name, start and end in `perf_counter_ns`. Spans stay in memory until the run
ends. A layer's self time is the span's duration minus the durations of its
direct child spans; spans nest because the program is single-threaded.
"""

from __future__ import annotations

import collections
import functools
import os
import statistics
import time

# (object path relative to the eerpms package, attribute, span name)
PATCHES = (
    ("simulation", "optimize_thresholds", "bat.optimize_thresholds"),
    ("simulation", "fuzzy_c_means", "fcm.fuzzy_c_means"),
    ("simulation", "build_histogram", "otsu.build_histogram"),
    ("simulation", "materialize_clusters", "otsu.materialize_clusters"),
    ("simulation", "select_cluster_heads", "selection.select_cluster_heads"),
    ("simulation.Simulation", "__init__", "simulation.init"),
    ("simulation.Simulation", "step", "simulation.step"),
    ("simulation.Simulation", "run", "simulation.run"),
    ("bat", "evaluate_threshold_sets", "otsu.evaluate_threshold_sets"),
    ("bat", "optimize_thresholds", "bat.optimize_thresholds"),
    ("otsu", "evaluate_threshold_sets", "otsu.evaluate_threshold_sets"),
    ("otsu", "exhaustive_best_threshold", "otsu.exhaustive_best_threshold"),
    ("experiments", "run_experiment", "experiments.run_experiment"),
    ("experiments", "write_rounds_csv", "experiments.write_rounds_csv"),
    ("experiments", "analytic_energy_grid", "experiments.analytic_energy_grid"),
    ("experiments", "simulated_energy_grid", "experiments.simulated_energy_grid"),
    ("theory", "wedge_sq_distance_mc", "theory.wedge_sq_distance_mc"),
)


def _count_rows(counts, args, kwargs, seconds):
    tmat = args[1] if len(args) > 1 else kwargs["tmat"]
    counts["otsu.evaluate_threshold_sets.rows"] += len(tmat)


def _count_bytes(counts, args, kwargs, seconds):
    path = args[0] if args else kwargs["path"]
    counts["experiments.write_rounds_csv.bytes"] += os.path.getsize(path)


def _count_run(counts, args, kwargs, seconds):
    sim = args[0]
    protocol = sim.config.protocol.value.lower()
    counts["simulation.rounds"] += sim.round_index
    counts["simulation.reclusterings"] += sim.clustering_events
    counts[f"simulation.{protocol}_runs"] += 1
    counts[f"simulation.{protocol}_run_s"] += seconds


COUNTERS = {
    "otsu.evaluate_threshold_sets": _count_rows,
    "experiments.write_rounds_csv": _count_bytes,
    "simulation.run": _count_run,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (parent index or -1, name, start_ns, end_ns)
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)   # reserved, so that child spans can name it as parent
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (parent, name, start, end)
            if count is not None:
                count(counts, args, kwargs, (end - start) * 1e-9)
            return result

        return traced

    def install(self, package):
        """Wrap every patch target of `package`; returns a function that undoes it."""
        undo = []
        for path, attr, name in PATCHES:
            owner = package
            for part in path.split("."):
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

        def uninstall():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
        return uninstall

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_ns = [0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = collections.Counter()
        total: dict[str, float] = collections.defaultdict(float)
        own: dict[str, float] = collections.defaultdict(float)
        for i, (_, name, start, end) in enumerate(self.spans):
            calls[name] += 1
            total[name] += (end - start) * 1e-9
            own[name] += (end - start - child_ns[i]) * 1e-9
        return calls, total, own

    def write(self, path) -> None:
        """One line per span: index, parent, name, start and end in ns."""
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for i, (parent, name, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\n")


def wrapper_cost_s(calls: int = 20000, samples: int = 5) -> float:
    """What one traced call costs beyond the bare call: the median over
    `samples` timings of `calls` wrapped calls of an empty function, less
    the same number of bare calls, per call."""
    def empty():
        return None
    costs = []
    for _ in range(samples):
        wrapped = Tracer().wrap("empty", empty)
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        middle = time.perf_counter()
        for _ in range(calls):
            empty()
        costs.append(((middle - start) - (time.perf_counter() - middle)) / calls)
    return statistics.median(costs)
