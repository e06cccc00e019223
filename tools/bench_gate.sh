#!/usr/bin/env bash
# Per-stage items/s regression gate against the committed BENCH_pipeline.json
# snapshot: re-measures a fast subset of the perf suite (the decode kernels
# plus the serial fused-aggregation and detection rows) and fails loudly if
# any stage falls below tolerance x its committed baseline — so a future
# decode regression trips CI instead of silently rotting the snapshot.
#
# The tolerance absorbs host noise (CI boxes are shared; the default 0.70
# tolerates a 30% dip before failing). Rows whose stage/key is absent from
# the snapshot are reported and skipped, so the gate works before and after
# a re-baseline. Comparisons only ever run against rows the snapshot
# recorded on a comparable host — thread-scaling rows are judged on the
# snapshot's own num_cpus stamp, not this machine's. Every top-level
# alternative of the filter must match at least one benchmark name (rows
# registered with UseRealTime end in /real_time), so a row the filter
# silently stops selecting fails the gate instead of going unchecked.
#
# Usage: tools/bench_gate.sh [tolerance]
#   BENCH_BUILD_DIR   Release build dir (default: build-bench, shared with
#                     bench_json.sh)
#   DM_BENCH_GATE_FILTER  override the benchmark filter regex
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BENCH_BUILD_DIR:-$ROOT/build-bench}"
SNAPSHOT="$ROOT/BENCH_pipeline.json"
TOLERANCE="${1:-${DM_BENCH_TOLERANCE:-0.70}}"
FILTER="${DM_BENCH_GATE_FILTER:-BM_VarintDecode|BM_BlockDecode|BM_FusedGenerateWindows/threads:1/real_time$|BM_DetectMinutes/threads:1/real_time$}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

if [[ ! -f "$SNAPSHOT" ]]; then
  echo "bench_gate.sh: no $SNAPSHOT baseline — run tools/bench_json.sh first" >&2
  exit 1
fi

cmake -B "$BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=Release \
  -DDM_BUILD_TESTS=OFF \
  -DDM_BUILD_EXAMPLES=OFF
cmake --build "$BUILD" -j"$(nproc)" --target perf_pipeline

echo "== bench_gate: filter=$FILTER tolerance=$TOLERANCE"
"$BUILD/bench/perf_pipeline" \
  --benchmark_filter="$FILTER" \
  --benchmark_out="$TMP/gate.json" \
  --benchmark_out_format=json > /dev/null

python3 - "$TMP/gate.json" "$SNAPSHOT" "$TOLERANCE" "$FILTER" <<'PY'
import json
import re
import sys

measured_path, snapshot_path, tol_s, filter_re = sys.argv[1:5]
tolerance = float(tol_s)
with open(measured_path) as f:
    measured = json.load(f)
with open(snapshot_path) as f:
    snapshot = json.load(f)
stages = snapshot.get("stages", {})


def alternatives(pattern):
    """Splits a regex on its '|' outside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(pattern):
        if i > 0 and pattern[i - 1] == "\\":
            continue
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "|" and depth == 0:
            parts.append(pattern[start:i])
            start = i + 1
    return parts + [pattern[start:]]


names = [b["name"] for b in measured.get("benchmarks", [])]
unmatched = [alt for alt in alternatives(filter_re)
             if not any(re.search(alt, name) for name in names)]
for alt in unmatched:
    print(f"  FAIL filter alternative {alt!r} matched no benchmark")

failures, checked, skipped = [], 0, []
for b in measured.get("benchmarks", []):
    if b.get("run_type") == "aggregate" or "items_per_second" not in b:
        continue
    name = b["name"]
    stage = re.match(r"(?:BM_)?([^/]+)", name).group(1)
    params = [p for p in name.split("/")[1:]
              if p not in ("real_time", "process_time")
              and not p.startswith("iterations:")]
    key = "/".join(params) if params else "threads:1"
    base_row = stages.get(stage, {}).get(key)
    if base_row is None or "items_per_second" not in base_row:
        skipped.append(f"{stage}/{key}")
        continue
    base = base_row["items_per_second"]
    got = b["items_per_second"]
    checked += 1
    verdict = "ok" if got >= tolerance * base else "FAIL"
    print(f"  {verdict:4} {stage}/{key}: {got:,.0f} items/s "
          f"(baseline {base:,.0f}, floor {tolerance * base:,.0f})")
    if verdict == "FAIL":
        failures.append(f"{stage}/{key}")

for row in skipped:
    print(f"  skip {row}: not in snapshot (re-run tools/bench_json.sh)")
if unmatched:
    sys.exit("bench_gate.sh: filter alternatives matched no benchmark: " +
             ", ".join(unmatched))
if checked == 0:
    sys.exit("bench_gate.sh: no gated row matched the snapshot — "
             "stale baseline or filter drift")
if failures:
    sys.exit("bench_gate.sh: throughput regression in: " + ", ".join(failures))
print(f"bench_gate: {checked} stage(s) within tolerance")
PY
