#!/usr/bin/env bash
# Engine-scaling benchmark run.
#
# Builds the Release tree, runs bench_shard_scaling once — the one binary
# that measures how the engine scales on N-segment worlds: the thread x
# segment matrix, the imbalanced planner-vs-identity A/B, the cut-WAN
# island A/B, and the 100- and 1,000-segment bounded-shard runs, in a
# single invocation with host_cpus recorded in the document — and
# refreshes the "current" block inside BENCH_shard_scaling.json. The
# script fails when the binary's self-checks do. The checked-in
# "pre_refactor_baseline" block — the single-threaded engine before the
# sharded refactor, measured on the same workload at 8 segments — is
# preserved for comparison.
#
# Measured wall-clock speedup only materializes on hosts with as many cores
# as engine threads; on smaller hosts the per-run "worker_bound" field
# (sum/max of per-worker event loads under the strided assignment) is the
# honest scaling signal. Oversubscribing the host makes the wall numbers
# misleading, so a PLWG_SIM_THREADS above the host's CPU count is refused
# unless --force is given.
#
# Usage: scripts/bench_shard_scaling.sh [--force]
#   PLWG_BENCH_BIG=0   skip the 100- and 1,000-segment sections
#   BUILD_DIR=...      build tree (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
OUT_JSON=BENCH_shard_scaling.json

force=0
for arg in "$@"; do
  case "$arg" in
    --force) force=1 ;;
    *) echo "usage: $0 [--force]" >&2; exit 2 ;;
  esac
done

host_cpus=$(nproc)
if [[ -n "${PLWG_SIM_THREADS:-}" && "${PLWG_SIM_THREADS}" -gt "$host_cpus" \
      && "$force" -ne 1 ]]; then
  echo "error: PLWG_SIM_THREADS=${PLWG_SIM_THREADS} exceeds the host's" \
       "${host_cpus} CPUs — wall-clock results would be oversubscription" \
       "noise. Pass --force to run anyway (worker_bound stays valid)." >&2
  exit 1
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$host_cpus" --target bench_shard_scaling

tmp_json=$(mktemp)
trap 'rm -f "$tmp_json"' EXIT
"$BUILD_DIR/bench/bench_shard_scaling" > "$tmp_json"

python3 - "$tmp_json" "$OUT_JSON" <<'EOF'
import json, sys

current = json.load(open(sys.argv[1]))
out_path = sys.argv[2]
try:
    doc = json.load(open(out_path))
except (FileNotFoundError, json.JSONDecodeError):
    doc = {}
doc.setdefault("pre_refactor_baseline", {
    "engine": "single-threaded sim::Simulator, global WAN queue",
    "workload": "8 segments x 3 processes, one LWG per segment, "
                "64B sends every 2000 us from every process",
    "sim_s": 5, "wall_s": 0.357, "wall_s_per_sim_s": 0.0714,
    "deliveries": 180000, "deliveries_per_wall_s": 504202,
})
doc["current"] = current
json.dump(doc, open(out_path, "w"), indent=1)
print(f"wrote {out_path} (host_cpus={current.get('host_cpus')})")
for run in current.get("runs", []):
    measured = "".join(f"{run[key]:.2f}x vs {label}, "
                       for key, label in (("speedup_vs_1_thread", "1 thread"),
                                          ("speedup_vs_identity", "identity"))
                       if key in run)
    print(f"  [{run['section']}] segments={run['segments']} "
          f"threads={run['threads']} planner={run['planner']} "
          f"shards={run['shards']} islands={run['islands']} "
          f"replans={run['replans']}: "
          f"{run['wall_s']:.3f} wall-s, {measured}"
          f"worker bound {run['worker_bound']:.2f}x")
EOF
