#!/usr/bin/env bash
# Perf-trajectory snapshot: builds the perf suites in Release mode, runs
# them with --benchmark_format=json, and writes a normalized
# BENCH_pipeline.json (stage -> threads -> items/s, real time, peak RSS)
# at the repo root so the throughput/memory trajectory is tracked per PR.
#
# Memory-sensitive rows (the paper-scale Study rows and the longitudinal
# spill-vs-resident pair) run in separate processes: peak RSS
# is a process-wide high-water mark, so sharing a process would let the
# first benchmark's footprint mask the second's.
#
# Single-CPU hosts cannot produce an honest threads-vs-throughput scaling
# table (every "parallel" row is the same serial machine plus scheduler
# noise). On num_cpus==1 this script therefore runs only the threads:1
# rows and stamps the snapshot scaling_tables:"suppressed (num_cpus=1)";
# the normalizer FAILS LOUDLY if multi-thread rows reach it from a 1-CPU
# context anyway (e.g. a hand-run benchmark JSON), instead of committing a
# bogus scaling table.
#
# Usage: tools/bench_json.sh [build-dir]
#   DM_BENCH_PAPER=1   also run the (slow) paper-scale scaling table.
#   DM_BENCH_LONG=1    also run the (slow, ~minutes/row) longitudinal
#                      spill-vs-resident pair (BM_StudyLongitudinal).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-${BENCH_BUILD_DIR:-$ROOT/build-bench}}"
OUT="$ROOT/BENCH_pipeline.json"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

NCPU="$(nproc)"
# Scaling tables need real cores; on one CPU keep only the serial rows.
THREAD1=""
if [[ "$NCPU" == "1" ]]; then
  echo "bench_json.sh: num_cpus=1 — suppressing multi-thread scaling rows" >&2
  THREAD1="threads:1"
fi

cmake -B "$BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=Release \
  -DDM_BUILD_TESTS=OFF \
  -DDM_BUILD_EXAMPLES=OFF
cmake --build "$BUILD" -j"$NCPU" --target perf_pipeline perf_detectors perf_netflow

run() { # run <output.json> <binary> [filter]
  local out="$1" bin="$2" filter="${3:-}"
  local args=(--benchmark_out="$TMP/$out" --benchmark_out_format=json)
  [[ -n "$filter" ]] && args+=("--benchmark_filter=$filter")
  echo "== $bin ${filter:+(filter: $filter)}"
  "$BUILD/bench/$bin" "${args[@]}" > /dev/null
}

run decode_kernels.json perf_pipeline 'BM_VarintDecode|BM_BlockDecode'
run pipeline_stages.json perf_pipeline \
  "(BM_GenerateTrace|BM_AggregateWindows|BM_FusedGenerateWindows|BM_DetectMinutes)/${THREAD1}|BM_FullDetection"
run study_fused.json perf_pipeline "BM_StudyEndToEnd/${THREAD1}"
run serve_overload.json perf_pipeline "BM_ServeOverload/${THREAD1}"
if [[ "${DM_BENCH_PAPER:-0}" != "0" ]]; then
  # One process per row: each row's peak_rss_mib must be its own high-water
  # mark, not the max over every row run before it.
  paper_rows=('threads:1')
  if [[ "$NCPU" != "1" ]]; then
    paper_rows+=('threads:2' 'threads:4' 'threads:8')
  fi
  paper_row=0
  for row in "${paper_rows[@]}"; do
    run "study_paper_$((paper_row++)).json" perf_pipeline \
      "BM_StudyPaperScale/${row}"
  done
fi
if [[ "${DM_BENCH_LONG:-0}" != "0" ]]; then
  # Spill-vs-resident at longitudinal scale, one process per row (the whole
  # point is comparing the two peak-RSS high-water marks).
  run study_long_resident.json perf_pipeline 'BM_StudyLongitudinal/spill:0'
  run study_long_spill.json perf_pipeline 'BM_StudyLongitudinal/spill:1'
fi
run detectors.json perf_detectors
run netflow.json perf_netflow

python3 - "$TMP" "$OUT" <<'PY'
import datetime
import glob
import json
import os
import re
import sys

tmp, out = sys.argv[1], sys.argv[2]
to_ms = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
stages = {}
context = {}
for path in sorted(glob.glob(os.path.join(tmp, "*.json"))):
    with open(path) as f:
        data = json.load(f)
    context = data.get("context", context)
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b["name"]
        stage = re.match(r"(?:BM_)?([^/]+)", name).group(1)
        # Inner key: the parameter segment ("threads:8" or
        # "spill:1"); plain benchmarks key as "threads:1".
        params = [p for p in name.split("/")[1:]
                  if p not in ("real_time", "process_time")
                  and not p.startswith("iterations:")]
        threads = "/".join(params) if params else "threads:1"
        scale = to_ms.get(b.get("time_unit", "ns"), 1.0)
        row = {"real_time_ms": round(b["real_time"] * scale, 3)}
        if "items_per_second" in b:
            row["items_per_second"] = round(b["items_per_second"], 1)
        for counter in ("peak_rss_mib", "encoded_bytes_per_record",
                        "vip_minutes", "segments", "shed_records",
                        "writer_retries", "writer_dropped"):
            if counter in b:
                row[counter] = round(b[counter], 2)
        stages.setdefault(stage, {})[threads] = row

num_cpus = context.get("num_cpus")
if num_cpus == 1:
    # A 1-CPU host cannot measure thread scaling. Refuse to write a snapshot
    # that pretends otherwise — this catches benchmark JSONs produced outside
    # the thread:1 filters above.
    tainted = sorted(
        f"{stage}/{key}"
        for stage, rows in stages.items()
        for key in rows
        if re.search(r"threads:(?!1(?:/|$))", key))
    if tainted:
        sys.exit(
            "bench_json.sh: num_cpus=1 but multi-thread scaling rows were "
            "measured — a 1-CPU scaling table is noise, not data. Tainted "
            "rows: " + ", ".join(tainted) +
            ". Re-run on a multicore host.")

snapshot = {
    "schema": "dm-bench-v1",
    "generated": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "host": {"num_cpus": num_cpus},
    "stages": stages,
}
if num_cpus == 1:
    snapshot["host"]["scaling_tables"] = "suppressed (num_cpus=1)"
with open(out, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=True)
    f.write("\n")
PY

echo "wrote $OUT"
