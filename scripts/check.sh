#!/usr/bin/env bash
# Full local verification matrix:
#   1. default build + ctest
#   2. GT_ANALYZE=ON with clang++ (-Werror=thread-safety)  [skipped if no clang++]
#   3. GT_SANITIZE=thread build + ctest                    [TSan]
#   4. GT_SANITIZE=address build + ctest                   [ASan+LSan]
#   5. GT_SANITIZE=undefined build + ctest                 [UBSan, fatal reports]
#   6. tools/gt_lint.py                                    [repo lint gate]
#   7. gtbench/tests/selftest.py                           [repo benchmark at smoke size]
#
# Usage: scripts/check.sh [--fast]
#   --fast  skip the sanitizer and gtbench self-test legs (slowest part of the matrix)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

step() { printf '\n== %s ==\n' "$*"; }

# Configure a build dir, adding -G Ninja only when the dir is fresh: an
# existing cache keeps its generator, and a mismatched -G is a hard error.
configure() {
  local dir="$1"; shift
  local gen=()
  [[ ! -f "$dir/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1 && gen=(-G Ninja)
  cmake -B "$dir" -S . "${gen[@]}" "$@" >/dev/null
}

# -- 1. default build + tests -------------------------------------------------
step "default build + ctest"
configure build
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

# Crash-fault-injection gate: run the kill-point sweeps explicitly so a
# filter or discovery problem can never silently drop them from the matrix.
step "crash-fault-injection sweep (test_kv_crash)"
ctest --test-dir build --output-on-failure --no-tests=error \
  -R 'Crash(Sweep|Recovery|FaultEnv)Test'

# Cross-engine differential gate: the seeded random-workload comparison of
# Sync-GT / Async-GT / GraphTrek against the reference evaluator, including
# the duplicate+drop idempotence leg and the corruption leg (200 seeds, one
# bad vertex record or edge value each: every answer is the oracle's or
# Corruption, and Corruption whenever the plan reads the bad item). Run
# explicitly for the same reason as
# the crash sweeps: discovery problems must not silently drop it. Repeated:
# frame/answer accounting bugs in the attribution protocol show only on
# some schedules. The scheduled frame test rides along: it pins down when
# a travel's frames leave a server (on local quiescence, one step-3 frame
# for two batches) on both result protocols, and so do the Sync-GT
# barrier tests (no step starts before every server drained the last; a
# frame that arrives after its step's release starts at once), and so do
# the travel-memo unit tests (TravelCacheTest, TravelCacheConcurrencyTest:
# the per-travel memo's owner/waiter records the answer flow rests on, and
# its table growth).
step "cross-engine differential harness (test_engine_differential)"
ctest --test-dir build --output-on-failure --no-tests=error \
  --repeat until-fail:3 \
  -R 'EngineDifferentialTest|TravelCache|EngineFeatureTest\.(FramesWaitForLocalQuiescence|SyncHoldsNextStepUntilEveryServerDrains|SyncStartsFramesThatArriveAfterTheirRelease)'

# GTravel language + scan-start + store-error gate: plan codec
# round-trip/validation, the GTravel builder, the reference evaluator, the
# three store-error gates (a truncated edge value or a one-byte vertex
# record on a hop, CorruptHopReadFailsTravel, and a corrupt vertex mid-ring,
# CorruptRingVertexFailsTravel, each failing the travel with Corruption on
# every engine), and the four scan-start gates:
# every engine on bare and filtered type-index starts against the reference
# evaluator (ScanStartsMatchOracle), each scan-start root read once, inside
# the scan, on both of its read branches and with or without start filters
# (ScanStartRootsAreReadOnce), a corrupt record in the scan failing the
# travel with Corruption on both read branches (CorruptScanStartRecordFailsTravel),
# and the Darshan audit queries against the reference evaluator
# (bench_smoke_table3_planner), and the catalog-failure tests (a name a
# server's catalog cannot intern ends the travel or the mutation with
# Unavailable, CatalogFailureTest, and over TCP with the authority stopped
# the submit's Unavailable names the failed catalog call,
# SubmitWithoutAuthorityNamesTheFailedCatalogCall). Naming them here keeps
# them from silently dropping out of discovery.
step "GTravel language + scan-start tests"
ctest --test-dir build --output-on-failure --no-tests=error \
  -R 'PlanTest|FilterTest|GTravelTest|EvaluatorTest|ScanStartsMatchOracle|ScanStartRootsAreReadOnce|CorruptScanStartRecordFailsTravel|CorruptHopReadFailsTravel|CorruptRingVertexFailsTravel|CatalogFailureTest|SubmitWithoutAuthorityNamesTheFailedCatalogCall|bench_smoke_table3_planner'

# Bench smoke gate: every figure/table/ablation binary must still run end to
# end at --smoke size (they read the metrics registry, so a renamed series
# breaks here instead of on a multi-hour full run).
step "bench smoke run (--smoke)"
ctest --test-dir build --output-on-failure --no-tests=error -L bench_smoke

# I/O-path ablation gate: the adjacency cache must stay toggleable (the
# ablation binary runs with it on and off), and the cache's unit +
# differential coverage must run, with the graph-store tests (the edge
# scans' corrupt-value check on the cold and cached paths).
# Explicit -R for the same reason as the sweeps above: a label or discovery
# problem must not silently drop them.
step "I/O-path ablation smoke + adjacency-cache tests"
ctest --test-dir build --output-on-failure --no-tests=error \
  -R 'bench_smoke_ablation_optimizations|AdjacencyCacheTest|GraphStoreTest'

# Travel-lifecycle gate: queue-key collision regression, cancellation
# reclaim (alone and beside a live travel), admission control, deadline
# enforcement and completion with the maintenance tick held off, plus the
# load generator that drives them at --smoke size (TravelLifecycleTest
# matches the tick test, PlainTravelCompletesWithoutMaintenanceTick, and
# the concurrent cancel, CancelLeavesConcurrentTravelIntact, named here
# too). Repeated: ending a travel erases only its record, and its queued
# tasks leave the queue as workers pop and drop them, so the cancel tests'
# reclaim (and their bound on store reads after the cancel) depends on
# the workers' schedule. Explicit -R so a discovery problem cannot
# silently drop the lifecycle coverage.
step "travel lifecycle tests + load-generator smoke"
ctest --test-dir build --output-on-failure --no-tests=error \
  --repeat until-fail:3 \
  -R 'RequestQueueTest|TravelLifecycleTest|CancelLeavesConcurrentTravelIntact|bench_smoke_load_travels'

# Decode-hardening gate: the table-driven malformed-input matrix, the replay
# of every checked-in fuzz corpus seed through its harness, the payload
# codecs (the flat frontier frame against the nested encoding's bytes), the
# client-facing status tails (a corrupt point query returns Corruption, a
# refused PutVertex returns Unavailable), and the lint self-test that keeps
# the decode-discipline and Status-discard checks themselves honest.
# Explicit -R so a discovery problem cannot silently drop the adversarial
# coverage.
step "decode-error matrix + fuzz-corpus replay + status tails + lint self-test"
ctest --test-dir build --output-on-failure --no-tests=error \
  -R 'DecodeErrorsTest|TcpMalformedFrameTest|CorpusReplayTest|PayloadTest|CorruptVertexRecordReturnsCorruption|RefusedPutVertexReturnsUnavailable|gt_lint_selftest'

# Snapshot-isolation gate: the kv pin/GC unit tests, the adjacency-cache
# pinned-read test, the mutate-while-traversing differential legs (in-process
# and TCP), the torn-read control that proves the legs can catch a violation
# (a travel racing a delete matches the oracle on its pinned dump, and that
# oracle differs from the oracle on the live graph), and the mixed
# read/write load bench at --smoke size. Explicit -R so a
# discovery problem cannot silently drop the consistency coverage.
step "snapshot-isolation gate (pins, racing travels, torn-read control)"
ctest --test-dir build --output-on-failure --no-tests=error \
  -R 'DBTest\..*Snapshot|AdjacencyCacheTest\.PinnedSnapshot|MutationsRacingTravelsMatchPinnedOracle|TornReadControlRequiresSnapshotIsolation|bench_smoke_load_mutate'

# -- 2. thread-safety analysis (clang only) -----------------------------------
step "GT_ANALYZE=ON (clang thread-safety analysis)"
if command -v clang++ >/dev/null 2>&1; then
  configure build-tsa \
    -DCMAKE_CXX_COMPILER=clang++ -DGT_ANALYZE=ON >/dev/null
  cmake --build build-tsa -j "$JOBS"
else
  echo "clang++ not found: skipping the -Werror=thread-safety leg" \
       "(annotations compile as no-ops elsewhere)"
fi

# -- 3. ThreadSanitizer -------------------------------------------------------
if [[ "$FAST" == 0 ]]; then
  step "GT_SANITIZE=thread build + ctest"
  configure build-tsan -DGT_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS"
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
  step "crash-fault-injection sweep under TSan"
  ctest --test-dir build-tsan --output-on-failure --no-tests=error \
    -R 'Crash(Sweep|Recovery|FaultEnv)Test'
  step "cross-engine differential harness + travel memo under TSan"
  ctest --test-dir build-tsan --output-on-failure --no-tests=error \
    -R 'EngineDifferentialTest|TravelCache'
  step "scan-start record hand-off + store errors + fuzz-corpus replay under TSan"
  ctest --test-dir build-tsan --output-on-failure --no-tests=error \
    -R 'ScanStartRootsAreReadOnce|CorruptScanStartRecordFailsTravel|CorruptHopReadFailsTravel|CorruptRingVertexFailsTravel|CorpusReplayTest'
  step "adjacency-cache tests under TSan (mutate-while-traversing)"
  ctest --test-dir build-tsan --output-on-failure --no-tests=error \
    -R 'AdjacencyCacheTest'
  step "travel lifecycle tests under TSan (cancel/admission races)"
  ctest --test-dir build-tsan --output-on-failure --no-tests=error \
    -R 'RequestQueueTest|TravelLifecycleTest|CancelLeavesConcurrentTravelIntact'
  step "snapshot-isolation racing legs under TSan"
  ctest --test-dir build-tsan --output-on-failure --no-tests=error \
    -R 'MutationsRacingTravelsMatchPinnedOracle|TornReadControlRequiresSnapshotIsolation|bench_smoke_load_mutate'
else
  step "GT_SANITIZE=thread (skipped: --fast)"
fi

# -- 4. AddressSanitizer (+LeakSanitizer) -------------------------------------
if [[ "$FAST" == 0 ]]; then
  step "GT_SANITIZE=address build + ctest"
  configure build-asan -DGT_SANITIZE=address
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
  step "decode-error matrix + corpus replay + corruption leg + status tails under ASan"
  ctest --test-dir build-asan --output-on-failure --no-tests=error \
    -R 'DecodeErrorsTest|TcpMalformedFrameTest|CorpusReplayTest|CorruptItemFailsTravelsThatReadIt|CorruptVertexRecordReturnsCorruption|RefusedPutVertexReturnsUnavailable'
else
  step "GT_SANITIZE=address (skipped: --fast)"
fi

# -- 5. UndefinedBehaviorSanitizer --------------------------------------------
if [[ "$FAST" == 0 ]]; then
  step "GT_SANITIZE=undefined build + ctest"
  configure build-ubsan -DGT_SANITIZE=undefined
  cmake --build build-ubsan -j "$JOBS"
  ctest --test-dir build-ubsan --output-on-failure -j "$JOBS"
  step "decode-error matrix + corpus replay under UBSan"
  ctest --test-dir build-ubsan --output-on-failure --no-tests=error \
    -R 'DecodeErrorsTest|TcpMalformedFrameTest|CorpusReplayTest'
else
  step "GT_SANITIZE=undefined (skipped: --fast)"
fi

# -- 6. repo lint gate --------------------------------------------------------
step "tools/gt_lint.py"
python3 tools/gt_lint.py

# -- 7. repository benchmark self-test ----------------------------------------
# gtbench compiles src/ in its own tree and gates each run on its own oracle,
# so an engine change can break it without any ctest failing.
if [[ "$FAST" == 0 ]]; then
  step "gtbench self-test (smoke size)"
  python3 gtbench/tests/selftest.py
else
  step "gtbench self-test (skipped: --fast)"
fi

printf '\ncheck.sh: all enabled legs passed\n'
