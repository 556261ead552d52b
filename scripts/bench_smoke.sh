#!/usr/bin/env bash
# Quick hot-path benchmark smoke run.
#
# Builds the Release tree, runs bench_hotpath with a short min-time, and
# refreshes the "current" run inside BENCH_hotpath.json (the checked-in
# "baseline" block — the pre-overhaul numbers — is preserved for
# comparison). Pass extra benchmark flags after --, e.g.
#   scripts/bench_smoke.sh -- --benchmark_filter=Codec
#
# Note: this google-benchmark build wants a plain number for
# --benchmark_min_time (no "s" suffix).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
MIN_TIME=${MIN_TIME:-0.05}
OUT_JSON=BENCH_hotpath.json

extra_args=()
if [[ "${1:-}" == "--" ]]; then
  shift
  extra_args=("$@")
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_hotpath

tmp_json=$(mktemp)
trap 'rm -f "$tmp_json"' EXIT
"$BUILD_DIR/bench/bench_hotpath" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out="$tmp_json" \
  --benchmark_out_format=json \
  "${extra_args[@]}"

python3 - "$tmp_json" "$OUT_JSON" <<'EOF'
import json, os, sys

current = json.load(open(sys.argv[1]))
out_path = sys.argv[2]
try:
    doc = json.load(open(out_path))
except (FileNotFoundError, json.JSONDecodeError):
    doc = {}
doc.setdefault("baseline", None)
doc["current"] = current
# CPUs the 'current' run could use (google-benchmark's context num_cpus
# is not always that figure inside a container).
doc["host_cpus"] = len(os.sched_getaffinity(0))

def rates(run):
    """benchmark name -> items/bytes per second (or 1/time as fallback)."""
    out = {}
    for b in (run or {}).get("benchmarks", []):
        rate = b.get("items_per_second") or b.get("bytes_per_second")
        if rate is None and b.get("real_time"):
            rate = 1e9 / b["real_time"]  # times are ns
        out[b["name"]] = rate
    return out

base, cur = rates(doc.get("baseline")), rates(doc.get("current"))
doc["speedup_vs_baseline"] = {
    name: round(cur[name] / base[name], 3)
    for name in cur
    if base.get(name) and cur.get(name)
}
json.dump(doc, open(out_path, "w"), indent=1)
print(f"wrote {out_path}")
for name, s in sorted(doc["speedup_vs_baseline"].items()):
    print(f"  {s:7.2f}x  {name}")
EOF
