"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload paper-n100 --seed 1 --seconds 8 --trace 0

With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the per-layer
metrics, taken from spans around the calls into each eerpms module, and the
spans are written to .benchmark_out/. Lines before it name each figure with
its unit and give the SHA-256 digest of the workload's outputs. Run from a
checkout: the program is imported from its src/ directory.
"""

import os

# Pin numpy's thread pools before numpy is first imported: timings are wall
# clock, and a pool would spread one run over cores that others share.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".benchmark_out"
# Scale of `setup_s`: set-up times are measured in reference timings and
# reported as seconds on a host where one reference timing takes this long.
REFERENCE_SCALE_S = 0.05
REFERENCE_SAMPLES = 5      # reference timings before a pass and after each step


def parse_args(argv):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class _Point:
    def __init__(self, x: float, y: float) -> None:
        self.x, self.y = x, y


def reference_times(samples: int) -> list[float]:
    """Wall times of `samples` runs of a fixed computation that uses no
    eerpms code.

    It mixes interpreted float arithmetic over small objects with numpy
    calls on a 30 x 10 array, the two kinds of work the program's hot paths
    do. Dividing a wall time by the median of these, taken around it,
    cancels most of the host's speed, which changed by up to 2x over minutes
    on the shared virtual machine the benchmark was tuned on.
    """
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        points = [_Point(float(x), float(y)) for x, y in rng.random((2000, 2))]
        acc = 0.0
        for _ in range(60):
            for p in points:
                acc += math.hypot(p.x - 0.5, p.y - 0.5)
        block = rng.random((30, 10))
        for _ in range(4000):
            acc += float(np.sort(np.cumsum(block, axis=1), axis=1)[:, -1].max())
        times.append(time.perf_counter() - start)
    return times


def timed_pass(workload, tracer=None, reference=False):
    """Run one pass: its results, the wall time of each step and, if asked,
    reference times taken before the first step and after each step."""
    uninstall = tracer.install(workload.ee) if tracer else None
    try:
        workload.prepare()
        results, walls = [], []
        refs = reference_times(REFERENCE_SAMPLES) if reference else []
        for step in workload.steps():
            start = time.perf_counter()
            results.append(step())
            walls.append(time.perf_counter() - start)
            if reference:
                refs += reference_times(REFERENCE_SAMPLES)
        return results, walls, refs
    finally:
        if uninstall:
            uninstall()


def recheck(workload, out) -> bool:
    """Run the workload's `recheck_step` of a fresh pass, untimed, and say
    whether its outputs equal those of the same step in `out`."""
    i = workload.recheck_step
    expected = workload.step_digest(out[i])
    workload.prepare()
    again = workload.steps()[i]()
    return workload.step_digest(again) == expected


def layer_metrics(tracer, passes: int, overhead_s: float, wanted: list[dict]) -> dict:
    from tracer import PATCHES
    calls, total, own = tracer.totals()
    values = {"trace.overhead_s": overhead_s,
              "simulation.init_s": total.get("simulation.init", 0.0) / passes}
    for _, _, span in PATCHES:
        values[f"{span}.calls"] = calls.get(span, 0) / passes
        values[f"{span}.self_s"] = own.get(span, 0.0) / passes
    for name in ("otsu.evaluate_threshold_sets.rows", "experiments.write_rounds_csv.bytes",
                 "simulation.rounds", "simulation.reclusterings"):
        values[name] = tracer.counts[name] / passes
    for protocol in ("eerpms", "rleach", "crpfcm"):
        runs = tracer.counts[f"simulation.{protocol}_runs"]
        values[f"simulation.{protocol}_run_s"] = \
            tracer.counts[f"simulation.{protocol}_run_s"] / runs if runs else 0.0
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "eerpms" / "__init__.py").is_file():
        print(f"benchmark: no eerpms package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from tracer import Tracer, wrapper_cost_s
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        samples = 0 if args.trace else 2   # a traced run reports no set-up time
        setups, setup_refs = [], reference_times(samples)
        for _ in range(workload.setup_repeats):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
            setup_refs += reference_times(samples)

        tracer = Tracer() if args.trace else None
        if tracer:
            workload.release()
        walls, relative, digests = [], [], []
        failed_ops: dict[str, list[str]] = {}
        details = {}
        while True:
            try:
                out, steps, refs = timed_pass(workload, tracer, reference=not tracer)
                walls.append(sum(steps))
                if refs:   # the pass against the host speed measured around it
                    relative.append(sum(steps) / statistics.median(refs))
                digests.append(workload.digest(out))
                if len(walls) == 1:
                    failed_ops = workload.check(out)
                    details = {} if tracer else workload.details(out, steps)
            except Exception:  # a pass that raises fails all of its operations
                traceback.print_exc()
                failed_ops = {op: ["raised"] for op in workload.ops}
                break
            if sum(walls) >= args.seconds:
                break
        repeat_agrees = True
        if len(digests) == 1:
            # one pass leaves nothing to compare it with: run one of its steps again
            try:
                repeat_agrees = recheck(workload, out)
            except Exception:
                traceback.print_exc()
                failed_ops = {op: ["raised"] for op in workload.ops}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = max(1, len(walls))
    attempted = len(workload.ops) * passes
    failed = len(failed_ops) * passes
    for op, problems in sorted(failed_ops.items()):
        print(f"FAILED {op}: {'; '.join(problems)}", file=sys.stderr)
    if len(set(digests)) > 1 or not repeat_agrees:
        print("FAILED: passes over the same inputs gave different outputs", file=sys.stderr)
    correct = failed == 0 and len(set(digests)) == 1 and repeat_agrees

    print(f"# workload {args.workload} seed {args.seed}: {len(walls)} passes, "
          f"{len(workload.ops)} operations each")
    print(f"# digest sha256 {digests[0] if digests else '-'}")
    for name, (value, unit) in details.items():
        print(f"{name} {value!r} {unit}")

    if args.trace:
        overhead = wrapper_cost_s() * len(tracer.spans) / passes
        metrics = layer_metrics(tracer, passes, overhead, spec["per_layer"])
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.tsv")
    else:
        setup_wall = statistics.median(setups)
        print(f"setup_wall_s {setup_wall!r} s")
        values = {"setup_s": REFERENCE_SCALE_S * setup_wall / statistics.median(setup_refs),
                  "wall_ref": statistics.median(relative) if relative else 0.0,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        print(f"wall_s {statistics.median(walls) if walls else 0.0!r} s")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
