#!/usr/bin/env sh
# Regenerates the checked-in bench baselines under bench/baselines/ from
# a built tree. Run after an INTENDED change to bench output (new cells,
# new fields, a deliberate perf characteristic shift), then commit the
# diff — CI's release-smoke job gates every run against these files.
#
# Usage: tools/update_baselines.sh [build-dir]   (default: build)
set -eu

build="${1:-build}"
repo="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
baselines="$repo/bench/baselines"
compare="$repo/$build/tools/bench_compare"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

run() {
  name="$1"; shift
  echo "== $name"
  # Run from a scratch dir so side artifacts (chrome traces) stay out of
  # the repo, and route each report through bench_compare
  # --update-baseline so it is validated before it lands.
  (cd "$scratch" && "$repo/$build/bench/$name" "$@" >/dev/null)
}

run bench_simspeed --smoke --report="$scratch/BENCH_simspeed.json"
run bench_kernel   --smoke --json="$scratch/BENCH_kernel.json"
run bench_faults   --smoke --report="$scratch/BENCH_faults.json"
run bench_topology --smoke --report="$scratch/BENCH_topology.json"
run bench_trace    --smoke --report="$scratch/BENCH_trace.json" \
                   --trace=BENCH_trace.chrome.json
run bench_hybrid   --smoke --report="$scratch/BENCH_hybrid.json"
run bench_serve    --smoke --report="$scratch/BENCH_serve.json"
run bench_model_fit --smoke --report="$scratch/BENCH_model_fit.json"
run bench_paper    # takes no flags; writes BENCH_paper.json to its cwd

mkdir -p "$baselines"
for b in simspeed kernel faults topology trace hybrid serve model_fit paper; do
  "$compare" --update-baseline \
    "$baselines/BENCH_$b.json" "$scratch/BENCH_$b.json"
done
echo "baselines updated; review with: git diff bench/baselines/"
