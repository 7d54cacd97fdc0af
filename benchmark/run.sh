#!/usr/bin/env bash
# Builds and runs the DBDS compile benchmark (see benchmark/README.md).
#
#   bash benchmark/run.sh [--seed N] [--seconds S]
#       every workload in its own process, then one traced run per
#       workload; prints every metric by name with its unit
#   bash benchmark/run.sh --smoke
#       one untraced pass per workload, plus the paper-suites equivalence
#       gate against measureSuite at seed 0
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of output is the JSON result
#
# Exits non-zero on a build failure or any correctness failure. The build
# goes to build-bench/ at the repository root; results and traces to
# build-bench/results/.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"
BUILD=build-bench
BENCH="$BUILD/dbds_bench"
OUT="$BUILD/results"
WORKLOADS=(paper-suites large-units small-units)

build() {
  local jobs
  jobs=$(nproc 2>/dev/null || echo 1)
  if ((jobs > 4)); then jobs=4; fi
  cmake -S benchmark -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
  cmake --build "$BUILD" -j "$jobs" >&2
  mkdir -p "$OUT"
}

single=0
for arg in "$@"; do
  [[ "$arg" == --workload || "$arg" == --workload=* ]] && single=1
done

if ((single)); then
  build
  exec "$BENCH" "$@" --trace-dir="$OUT"
fi

seed=0
seconds=30
smoke=()
while (($#)); do
  case "$1" in
    --smoke) smoke=(--smoke) ;;
    --seed) seed="$2"; shift ;;
    --seed=*) seed="${1#*=}" ;;
    --seconds) seconds="$2"; shift ;;
    --seconds=*) seconds="${1#*=}" ;;
    *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
  esac
  shift
done

build
status=0
for w in "${WORKLOADS[@]}"; do
  echo "=== $w (seed $seed) ==="
  "$BENCH" --workload="$w" --seed="$seed" --seconds="$seconds" "${smoke[@]}" \
    --json-out="$OUT/$w-seed$seed.json" || status=1
done
if ((${#smoke[@]} == 0)); then
  for w in "${WORKLOADS[@]}"; do
    echo "=== $w (seed $seed, traced) ==="
    "$BENCH" --workload="$w" --seed="$seed" --trace=1 --trace-dir="$OUT" \
      --json-out="$OUT/$w-seed$seed-trace.json" || status=1
  done
fi
((status == 0)) || echo "run.sh: a correctness check failed" >&2
exit "$status"
