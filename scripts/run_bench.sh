#!/usr/bin/env bash
# Runs the performance suite against the default build and persists the
# parsed numbers as a BENCH_<n>.json snapshot at the repo root, so a PR's
# perf claims are reviewable numbers instead of prose (see EXPERIMENTS.md).
#
#   - micro_kv / micro_graph / micro_rpc_engine  (google-benchmark)
#   - fig8_2step / fig9_4step                    (paper figure tables)
#
# Usage: scripts/run_bench.sh [--out FILE] [--before DIR]
#   --out FILE    where to write the JSON (default: BENCH_<next>.json)
#   --before DIR  directory of pre-change raw outputs (<bench>.txt) captured
#                 with the same binaries; parsed into the "before" section
#                 so the snapshot carries its own baseline.
# Raw outputs land in a mktemp dir (path echoed per bench via tee). The
# snapshot records the host's `nproc` and the build's CMAKE_BUILD_TYPE so
# snapshots from different machines or builds are not compared blindly.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

OUT=""
BEFORE_DIR=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --out) OUT="$2"; shift 2 ;;
    --before) BEFORE_DIR="$2"; shift 2 ;;
    *) echo "run_bench.sh: unknown flag '$1'" >&2; exit 1 ;;
  esac
done
if [[ -z "$OUT" ]]; then
  n=1
  while [[ -e "BENCH_${n}.json" ]]; do n=$((n + 1)); done
  OUT="BENCH_${n}.json"
fi

MICRO_BENCHES=(micro_kv micro_graph micro_rpc_engine)
FIG_BENCHES=(fig8_2step fig9_4step)
# Load benches with structured self-reports: each emits a JSON summary that
# is folded verbatim into the snapshot's "after" section (load_mutate = the
# mixed read/write ingest-vs-audit workload, table3_planner = each
# engine's ms per Darshan audit query, whose type-index scan starts hand
# their records to the root tasks, gated on the reference evaluator).
LOAD_BENCHES=(load_mutate table3_planner)

cmake --build build -j "${JOBS:-$(nproc 2>/dev/null || echo 2)}" \
  --target "${MICRO_BENCHES[@]}" "${FIG_BENCHES[@]}" "${LOAD_BENCHES[@]}" >/dev/null

RAW="$(mktemp -d)"
for b in "${MICRO_BENCHES[@]}"; do
  echo "== $b =="
  ./build/bench/"$b" --benchmark_min_time=0.05 | tee "$RAW/$b.txt"
done
for b in "${FIG_BENCHES[@]}"; do
  echo "== $b =="
  ./build/bench/"$b" | tee "$RAW/$b.txt"
done
for b in "${LOAD_BENCHES[@]}"; do
  echo "== $b =="
  ./build/bench/"$b" --json "$RAW/$b.json" | tee "$RAW/$b.txt"
done

python3 - "$OUT" "$RAW" "$BEFORE_DIR" <<'PY'
import json, os, re, subprocess, sys

out_path, raw_dir, before_dir = sys.argv[1], sys.argv[2], sys.argv[3]


def build_type():
    """CMAKE_BUILD_TYPE from build/CMakeCache.txt ("" = CMake's default)."""
    try:
        with open(os.path.join("build", "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None

# google-benchmark rows: "BM_Name/arg   1234 ns   1200 ns   9999 ..."
GBENCH_RE = re.compile(r"^(BM_\S+)\s+([\d.]+)\s+(ns|us|ms)\b")
TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6}
# figure tables: "16    19.1 ms    22.8 ms    0.84x"
FIG_RE = re.compile(r"^(\d+)\s+([\d.]+)\s+ms\s+([\d.]+)\s+ms\s+([\d.]+)x")


def parse_dir(d):
    benches = {}
    for name in sorted(os.listdir(d)):
        # Load benches self-report structured JSON; fold it in verbatim.
        if name.endswith(".json"):
            with open(os.path.join(d, name)) as f:
                benches[name[:-5]] = json.load(f)
            continue
        if not name.endswith(".txt"):
            continue
        rows = {}
        with open(os.path.join(d, name)) as f:
            for line in f:
                m = GBENCH_RE.match(line.strip())
                if m:
                    rows[m.group(1)] = {
                        "time_ns": float(m.group(2)) * TO_NS[m.group(3)]}
                    continue
                m = FIG_RE.match(line.strip())
                if m:
                    rows[f"servers_{m.group(1)}"] = {
                        "sync_ms": float(m.group(2)),
                        "graphtrek_ms": float(m.group(3)),
                        "speedup": float(m.group(4)),
                    }
        if rows:
            benches[name[:-4]] = rows
    return benches


def git(*args):
    try:
        return subprocess.run(["git", *args], capture_output=True,
                              text=True).stdout.strip()
    except OSError:
        return ""


snapshot = {
    "id": os.path.splitext(os.path.basename(out_path))[0],
    "commit": git("rev-parse", "--short", "HEAD"),
    "date": git("log", "-1", "--format=%cI") or None,
    "nproc": len(os.sched_getaffinity(0)),  # what `nproc` prints
    "build_type": build_type(),
    "after": parse_dir(raw_dir),
}
if before_dir and os.path.isdir(before_dir):
    snapshot["before"] = parse_dir(before_dir)

with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path}")

# Convenience: surface the cache-warm frontier-expansion speedup when both
# scan benchmarks are present (the PR-6 acceptance number).
mg = snapshot["after"].get("micro_graph", {})
for arg in ("8", "64"):
    cold = mg.get(f"BM_GraphScanEdgesByType/{arg}")
    warm = mg.get(f"BM_GraphScanEdgesCached/{arg}")
    if cold and warm and warm["time_ns"] > 0:
        print(f"frontier expansion speedup (degree {arg}): "
              f"{cold['time_ns'] / warm['time_ns']:.2f}x cache-warm")
PY
