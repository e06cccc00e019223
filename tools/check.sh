#!/usr/bin/env bash
# CI gate for the parallel pipeline: build the test suite under
# ThreadSanitizer and run the concurrency-sensitive tests — the exec pool
# unit tests, the sharded-aggregation suites (aggregate_windows classifies,
# scatters, aggregates and merges its key-range shards on pool threads),
# the trace and columnar-store suites (TraceReader::read_all decodes blocks
# on a pool; ColumnarRecords::concat copies stores on one), the
# serial-equivalence integration tests, and the serve supervisor suites
# whose shard runs ingest on pool threads — then build under ASan+UBSan and
# run the memory-sensitive codec tests (the columnar record store does raw
# varint pointer walks; ASan catches overreads TSan never would).
#
# Stages (all builds use -Werror via DM_WERROR=ON):
#   1. dmlint self-scan against the committed baseline (skip: DM_LINT=0)
#   2. clang-tidy over src/exec, src/netflow, src/detect (runs only when a
#      clang-tidy binary is available)
#   3. TSan build + concurrency suites (exec pool, sharded aggregation and
#      its reference suites, block-parallel trace reads, columnar concat,
#      serial equivalence, Supervisor pipelined shard ingest, and the
#      crash matrix's MidGenerationAndRepeatedKillPoints case; the full
#      RotationCrashMatrix runs in the DM_SERVE ASan stage)
#   4. ASan+UBSan build + codec suites (columnar store, the SWAR block
#      decoder's ColumnarBlocks/VarintSwar suites, frame codec with its
#      golden bytes, traces, windows, segments) and the streaming core
#      (StreamMonitor indexes into recycled minute storage; its checkpoint,
#      restore and the incident builder's minute arithmetic)
#   5. DM_SPILL=1: spill-tier differential + crash-recovery suites (ASan)
#   6. DM_SERVE=1: serve fleet suites — checkpoint-rotation crash matrix,
#      supervisor admission/shed and book-decoder rejection, sink +
#      buffered-writer retry/backoff, restore validation — plus a randomized crash/corruption soak
#      (DM_SOAK_SECONDS), all under the same ASan+UBSan build
#   7. DM_BENCH_JSON=1: refresh BENCH_pipeline.json (Release)
#   8. DM_BENCH_GATE=1: per-stage items/s regression gate vs the committed
#      BENCH_pipeline.json (tools/bench_gate.sh)
#   9. DM_PERFBENCH=1: build perfbench and perfbench_tests, run the tests,
#      and one 1-second pass of every workload, which must report
#      "correct": true and "failed": 0
#
# Usage: tools/check.sh [extra ctest -R regex]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build-tsan}"
ASAN_BUILD="${ASAN_BUILD_DIR:-$ROOT/build-asan}"
FILTER="${1:-ThreadPool|ParallelExec|ParallelEquivalence|WindowShardMerge|FusedPipeline|RadixSort|Aggregate|TraceIo|ColumnarRecords|Supervisor|MidGenerationAndRepeatedKillPoints}"
ASAN_FILTER="${2:-ColumnarRecords|ColumnarBlocks|VarintSwar|ColumnarEquivalence|Frame|TraceIo|Aggregate|WindowShardMerge|SegmentStore|StreamMonitor|StreamCheckpoint|StreamRestoreError|IncidentBuilder}"

# Determinism & invariant lint gate. Exits nonzero on any finding not in
# the committed baseline (which is kept empty). The scan itself (not the
# build) must finish inside DM_LINT_BUDGET seconds — the two-pass dmflow
# analyzer re-tokenizes the whole tree, and this tripwire keeps it from
# quietly growing into the slowest stage of the gate.
if [[ "${DM_LINT:-1}" != "0" ]]; then
  LINT_BUILD="${LINT_BUILD_DIR:-$ROOT/build-lint}"
  cmake -B "$LINT_BUILD" -S "$ROOT" \
    -DDM_WERROR=ON \
    -DDM_BUILD_TESTS=OFF \
    -DDM_BUILD_BENCH=OFF \
    -DDM_BUILD_EXAMPLES=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$LINT_BUILD" -j"$(nproc)" --target dmlint
  LINT_BUDGET="${DM_LINT_BUDGET:-60}"
  LINT_START=$SECONDS
  "$LINT_BUILD/tools/dmlint" --root "$ROOT" --baseline "$ROOT/.dmlint-baseline"
  LINT_ELAPSED=$((SECONDS - LINT_START))
  echo "check.sh: dmlint scan took ${LINT_ELAPSED}s (budget ${LINT_BUDGET}s)"
  if [[ "$LINT_ELAPSED" -gt "$LINT_BUDGET" ]]; then
    echo "check.sh: dmlint exceeded its ${LINT_BUDGET}s budget" >&2
    exit 1
  fi
fi

# clang-tidy over the determinism-critical subsystems, when available.
# Uses the lint build's compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS
# is always on).
if command -v clang-tidy >/dev/null 2>&1; then
  TIDY_BUILD="${LINT_BUILD_DIR:-$ROOT/build-lint}"
  if [[ ! -f "$TIDY_BUILD/compile_commands.json" ]]; then
    cmake -B "$TIDY_BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  fi
  find "$ROOT/src/exec" "$ROOT/src/netflow" "$ROOT/src/detect" \
    -name '*.cpp' -print0 |
    xargs -0 clang-tidy -p "$TIDY_BUILD" --quiet
else
  echo "check.sh: clang-tidy not found; skipping tidy stage" >&2
fi

cmake -B "$BUILD" -S "$ROOT" \
  -DDM_SANITIZE=thread \
  -DDM_WERROR=ON \
  -DDM_BUILD_BENCH=OFF \
  -DDM_BUILD_EXAMPLES=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j"$(nproc)" --target dm_tests

# Fail on any TSan report even if the test itself would pass.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
ctest --test-dir "$BUILD" --output-on-failure -R "$FILTER"

# ASan+UBSan pass over the codec-heavy suites and the streaming core.
cmake -B "$ASAN_BUILD" -S "$ROOT" \
  -DDM_SANITIZE=address,undefined \
  -DDM_WERROR=ON \
  -DDM_BUILD_BENCH=OFF \
  -DDM_BUILD_EXAMPLES=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$ASAN_BUILD" -j"$(nproc)" --target dm_tests

export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"
ctest --test-dir "$ASAN_BUILD" --output-on-failure -R "$ASAN_FILTER"

# Optional degraded-feed fault matrix: the fault-injection, salvage,
# checkpoint/restore, and end-to-end fault-matrix suites re-run under the
# same ASan+UBSan build (crash-freedom under corruption is the point), then
# a 30-second randomized-seed corruption soak hammers the salvage scanner
# with arbitrary damage. The soak test prints its seed via SCOPED_TRACE on
# failure, so a red run is reproducible. Enable with DM_FAULT_MATRIX=1.
if [[ "${DM_FAULT_MATRIX:-0}" != "0" ]]; then
  ctest --test-dir "$ASAN_BUILD" --output-on-failure \
    -R "FaultInjector|TraceSalvage|StreamCheckpoint|FaultMatrix|StreamMonitor|Csv"
  DM_SOAK_SECONDS="${DM_SOAK_SECONDS:-30}" \
    ctest --test-dir "$ASAN_BUILD" --output-on-failure -R "SalvageSoak"
fi

# Optional out-of-core stage: the spill tier's differential equivalence
# suite (full Study byte-identity, spill vs resident, across thread counts
# and RAM budgets), the segment round-trip/property suite, and the
# segment crash-recovery suite run under the same ASan+UBSan build — the
# spill path does mmap'd varint pointer walks over CRC-framed files, which
# is exactly the code ASan should watch. Enable with DM_SPILL=1.
if [[ "${DM_SPILL:-0}" != "0" ]]; then
  ctest --test-dir "$ASAN_BUILD" --output-on-failure \
    -R "SegmentStore|SpillEquivalence|SegmentSalvage"
fi

# Optional serve-fleet stage: the checkpoint-rotation crash matrix (every
# kill-point x {clean, corrupted gen-N} x 1/2/8 rotation threads, asserting
# byte-identical resume with exact damage ledgers), the supervisor
# admission/shed suites (including recovery past a book the decoder
# rejects), the sink + buffered-writer retry/backoff suites, the
# malformed-checkpoint restore regression, and the rotation-coverage
# tripwire — all under the ASan+UBSan build, because recovery walks
# attacker-controlled (torn/corrupt) bytes. A randomized crash-cell soak
# (DM_SOAK_SECONDS, seed printed via SCOPED_TRACE on failure) then hammers
# arbitrary kill-point/corruption combinations. Enable with DM_SERVE=1.
if [[ "${DM_SERVE:-0}" != "0" ]]; then
  ctest --test-dir "$ASAN_BUILD" --output-on-failure \
    -R "RotationCrashMatrix|CheckpointRotator|RotationCoverage|Supervisor|BufferedWriter|Sink|CorruptCheckpoint|KillSwitch|StreamRestoreError"
  DM_SOAK_SECONDS="${DM_SOAK_SECONDS:-30}" \
    ctest --test-dir "$ASAN_BUILD" --output-on-failure -R "RotationCrashSoak"
fi

# Optional Release-mode perf snapshot: refreshes BENCH_pipeline.json at the
# repo root (stage -> threads -> items/s + peak RSS). Off by default to keep
# the gate fast; enable with DM_BENCH_JSON=1.
if [[ "${DM_BENCH_JSON:-0}" != "0" ]]; then
  "$ROOT/tools/bench_json.sh"
fi

# Optional throughput regression gate: re-measures the decode kernels and
# the serial fused-aggregation/detection rows and fails if any falls below
# tolerance x its committed BENCH_pipeline.json baseline. Enable with
# DM_BENCH_GATE=1 (runs after DM_BENCH_JSON so a freshly regenerated
# baseline is compared against itself — a cheap sanity check — while a
# stale baseline catches real regressions).
if [[ "${DM_BENCH_GATE:-0}" != "0" ]]; then
  "$ROOT/tools/bench_gate.sh"
fi

# Optional production-benchmark stage: builds the perfbench program and the
# tests of its own logic from perfbench/CMakeLists.txt (into the build
# directory perfbench/run.py uses), runs the tests, then one 1-second pass
# of every workload through run.py, which fails unless each reports
# "correct": true and "failed": 0. A src change that breaks the benchmark's
# build or its oracle then fails here. Enable with DM_PERFBENCH=1.
if [[ "${DM_PERFBENCH:-0}" != "0" ]]; then
  PERFBENCH_BUILD="$ROOT/.bench_build/perfbench"
  cmake -S "$ROOT/perfbench" -B "$PERFBENCH_BUILD" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$PERFBENCH_BUILD" -j"$(nproc)" --target perfbench perfbench_tests
  "$PERFBENCH_BUILD/perfbench_tests"
  for workload in batch-detect stream-replay serve-fleet; do
    result="$(cd "$ROOT" && python3 perfbench/run.py --workload "$workload" \
      --seed 1 --seconds 1 | tail -n 1)"
    if ! python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$result"; then
      echo "check.sh: perfbench $workload failed: $result" >&2
      exit 1
    fi
  done
fi
