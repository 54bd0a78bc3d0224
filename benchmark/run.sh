#!/usr/bin/env bash
# Builds the benchmark program (delta_bench) from this checkout and runs it.
#
#   bash benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1] [key=value ...]
#   bash benchmark/run.sh [key=value ...]      # every workload, one process each
#   bash benchmark/run.sh smoke=1              # all four at ~1/20 scale + one traced replay
#
# The build goes to $CARGO_TARGET_DIR when set (relative paths are taken
# from the repository root), else to benchmark/.build. Build output goes to
# stderr, so the last line of stdout is delta_bench's JSON result. Running
# every workload, the exit status is the first non-zero status of any run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="${CARGO_TARGET_DIR:-benchmark/.build}"
[[ "$build" = /* ]] || build="$root/$build"

workloads=(paper_sync zipf1m_sync paper_wan_parallel chaos_open_loop)
workload=""
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed|--seconds|--trace) args+=("${1#--}=$2"); shift 2 ;;
    *=*) args+=("$1"); shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target delta_bench -j "$(nproc)" >&2
bench=("$build/delta_bench" "results_dir=$here/results")

if [[ -n "$workload" ]]; then
  exec "${bench[@]}" "workload=$workload" "${args[@]}"
fi

smoke=0
for a in "${args[@]}"; do [[ "$a" == smoke=1 ]] && smoke=1; done
runs=("${workloads[@]}")
[[ "$smoke" == 1 ]] && runs+=(traced)
status=0
for w in "${runs[@]}"; do
  echo "== $w" >&2
  rc=0
  if [[ "$w" == traced ]]; then
    "${bench[@]}" workload=paper_sync trace=1 "${args[@]}" || rc=$?
  else
    "${bench[@]}" "workload=$w" "${args[@]}" || rc=$?
  fi
  if [[ "$rc" != 0 ]]; then
    echo "run.sh: $w exited with status $rc" >&2
    [[ "$status" == 0 ]] && status=$rc
  fi
done
exit "$status"
