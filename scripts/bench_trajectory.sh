#!/usr/bin/env bash
# Records one comparable measurement per PR as BENCH_<label>.json at the
# repo root (see README "Performance"). It runs, in order:
#   1. the repository benchmark, `bash benchmark/run.sh --workload <w>` for
#      each of its four workloads, keeping each run's JSON result line
#      ({"correct", "attempted", "failed", "metrics"});
#   2. bench_trajectory, the sweeps the benchmark does not make
#      (single_cache/event_engine, object_scaling, n_sweep, open_loop);
# and writes
#   {"label", "commit", "benchmark": {<workload>: <result line>},
#    "sweeps": <bench_trajectory JSON>}
# where "commit" is the checked-out revision, suffixed "-dirty" when the
# measured tree has uncommitted changes.
#
#   scripts/bench_trajectory.sh [label]
#
#   label     suffix for the output file (default: the short git revision),
#             e.g. "PR17" -> BENCH_PR17.json
#
# benchmark/run.sh builds its own program. bench_trajectory is taken from
# BUILD_DIR (default ./build, Release) and must already be built:
#   cmake -B build -S . && cmake --build build -j --target bench_trajectory
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
BENCH="${BUILD_DIR}/bench/bench_trajectory"

if [[ ! -x "${BENCH}" ]]; then
  echo "error: ${BENCH} not built; run:" >&2
  echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j --target bench_trajectory" >&2
  exit 1
fi

LABEL="${1:-$(git rev-parse --short HEAD 2>/dev/null || echo local)}"
COMMIT="$(git describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)"
OUT="BENCH_${LABEL}.json"
TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT

WORKLOADS=(paper_sync zipf1m_sync paper_wan_parallel chaos_open_loop)
for w in "${WORKLOADS[@]}"; do
  echo "== benchmark ${w}" >&2
  bash benchmark/run.sh --workload "${w}" | tail -n 1 > "${TMP}/${w}.json"
done

echo "== bench_trajectory" >&2
"${BENCH}" out="${TMP}/sweeps.json"

python3 - "${LABEL}" "${COMMIT}" "${TMP}" "${OUT}" "${WORKLOADS[@]}" <<'EOF'
import json, sys
label, commit, tmp, out, *workloads = sys.argv[1:]
doc = {
    "label": label,
    "commit": commit,
    "benchmark": {w: json.load(open(f"{tmp}/{w}.json")) for w in workloads},
    "sweeps": json.load(open(f"{tmp}/sweeps.json")),
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
echo "trajectory written to ${OUT}"
