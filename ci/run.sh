#!/usr/bin/env bash
# The steps of .github/workflows/tier1.yml after Install, one function each.
# The workflow calls `ci/run.sh <step>` once per step, so a run of this
# script on a machine with the pinned packages is what CI runs:
#
#   ci/run.sh <step>...   run the named steps, in the order given
#   ci/run.sh all         run every step, in the workflow's order
#
# Steps write scratch files under $RUNNER_TEMP; outside CI a temporary
# directory stands in for it and is removed on exit.
set -eo pipefail
cd "$(dirname "$0")/.."
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

blas() {
  python -c "import ctypes, glob, os, numpy as np;
blas = np.show_config(mode='dicts')['Build Dependencies']['blas'];
print(blas.get('name'), blas.get('version'));
libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + '.libs', '*openblas*.so'));
core = getattr(ctypes.CDLL(libs[0]), 'scipy_openblas_get_corename64_', None) if libs else None;
core and setattr(core, 'restype', ctypes.c_char_p);
print('OpenBLAS core:', core().decode() if core else 'unknown')"
}

tests_and_line_reach() {
  PYTHONPATH=src:tests python -m pytest -q -m "not slow" -p line_reach
}

other_platforms() {
  export PYTHONPATH=src
  fast() { python -m pytest -q -m "not slow" "$@"; }
  OPENBLAS_CORETYPE=Prescott fast --deselect tests/test_fcm.py::test_matches_ratio_tensor_reference
  # no Zen: this numpy's OpenBLAS loads the Haswell kernels for it
  for core in Sandybridge Haswell; do
    OPENBLAS_CORETYPE=$core fast
  done
  NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" fast
  GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA,-FMA4 fast \
    --deselect "tests/test_golden.py::test_rounds_csv_digest[n250-b360-EERPMS]" \
    --deselect "tests/test_golden.py::test_rounds_csv_digest[n250-b720-EERPMS]"
}

benchmark_selfcheck() {
  PYTHONPATH=src python benchmark/selfcheck.py
}

benchmark_smoke() {
  # the digests of each workload's outputs at seed 1 (run.py's default seed)
  declare -A pinned=(
    [paper-n100]=eaf33a63a6914f2c83cbd26c402d963f25816d0f7be3d337dc419237726a16d4
    [dense-n1000]=34886e86f3be8a6232584f76290139045af34f84c734d3b8692f222e21f8aa65
    [oracle]=4347390d1566712779f7fe406d8353b9a473e7ddb0390ddc2bf647720e02d7a2
  )
  for workload in paper-n100 dense-n1000 oracle; do
    out=$(python benchmark/run.py --workload "$workload" --seconds 1)
    last=$(tail -n 1 <<< "$out")
    echo "$workload: $last"
    python -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(r["correct"] is not True or r["failed"] != 0)' "$last"
    digest=$(grep '^# digest sha256 ' <<< "$out" | cut -d ' ' -f 4)
    echo "$workload: digest $digest"
    [ "$digest" = "${pinned[$workload]}" ] || { echo "$workload: digest differs from ${pinned[$workload]}" >&2; exit 1; }
  done
}

landscape_smoke() {
  export PYTHONPATH=src
  python -m eerpms.cli verify --histograms 3 --seeds 2 --mc-samples 20000 --out "$RUNNER_TEMP/verify"
  python -m eerpms.cli theory --nodes 100 --radius 164.83298974878403
  python -m eerpms.cli theory --nodes 3 --radius 95 | tee "$RUNNER_TEMP/theory-k3.txt"
  grep -qx "radius within free-space limit: yes" "$RUNNER_TEMP/theory-k3.txt"
  printf '[network]\nradius_m = 1e-300\n' > "$RUNNER_TEMP/tiny.ini"
  python -m eerpms.cli verify --config "$RUNNER_TEMP/tiny.ini" --histograms 3 --seeds 2 --mc-samples 20000 --out "$RUNNER_TEMP/verify-tiny"
  python -m eerpms.cli sweep configs/landscape_grid.ini --out "$RUNNER_TEMP/landscape"
  test "$(wc -l < "$RUNNER_TEMP/verify/landscape_analytic.csv")" -eq $((30 * 1501 + 1))
  test "$(wc -l < "$RUNNER_TEMP/landscape/landscape_simulated.csv")" -eq $((30 * 16 + 1))
}

sampler_memory_smoke() {
  PYTHONPATH=src python - "$RUNNER_TEMP/verify-memory" <<'EOF'
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "eerpms.cli", "verify", "--histograms", "3",
                "--seeds", "2", "--mc-samples", "20000000", "--out", sys.argv[1]],
               check=True, stdout=subprocess.DEVNULL)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"verify --mc-samples 20000000: peak RSS {peak:.1f} MiB (ceiling 128)")
sys.exit(peak > 128)
EOF
}

exhaustive_memory_smoke() {
  PYTHONPATH=src python - <<'EOF'
import resource, subprocess, sys, time
child = """
import numpy as np
from eerpms import (AngleHistogram, AreaSpec, NetworkConfig, ObjectiveWeights, build_histogram,
                    deploy, exhaustive_best_threshold)
two_spike = np.zeros(36, dtype=np.int64)
two_spike[[0, -1]] = 50   # every set ties
config = NetworkConfig()   # the operating point: N = 100, 360 bins, K = 10, seed 1
full = build_histogram([n.angle for n in deploy(AreaSpec(config.radius_m, config.node_count),
                                                config.seed)], config.bin_count)
cases = [(np.random.default_rng(bins).integers(0, 4, size=bins) + 1, k, "")
         for bins, k in ((360, 4), (36, 8))] + [(two_spike, 8, " two-spike"),
                                                (full.counts, config.k_clusters, " N=100")]
for counts, k, name in cases:
    t, v = exhaustive_best_threshold(AngleHistogram(counts), k, ObjectiveWeights())
    print(f"bins={counts.size} k={k}{name}: {t.thresholds} {v!r}")
"""
start = time.perf_counter()
subprocess.run([sys.executable, "-c", child], check=True)
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"exhaustive search at (360, 4), (36, 8), two-spike (36, 8) and N=100 (360, 10): "
      f"peak RSS {peak:.1f} MiB (ceiling 64), wall {wall:.2f} s")
sys.exit(peak > 64)
EOF
}

steps=(blas tests_and_line_reach other_platforms benchmark_selfcheck benchmark_smoke
       landscape_smoke sampler_memory_smoke exhaustive_memory_smoke)
[ "$#" -gt 0 ] || { echo "usage: ci/run.sh all | <step>... (steps: ${steps[*]})" >&2; exit 2; }
[ "$1" = all ] && set -- "${steps[@]}"
for step in "$@"; do
  [[ " ${steps[*]} " == *" $step "* ]] || { echo "ci/run.sh: no step '$step'" >&2; exit 2; }
  echo "== $step"
  ("$step")   # a subshell: no step's exports reach the next
done
