#!/usr/bin/env bash
# Benchmark the experiment runner and the substrate micro-benches, and
# write a machine-readable summary to BENCH_runner.json at the repo root.
#
# Two quick-scale sweeps of every experiment run through domino-run — a
# serial baseline (jobs=1, what the retired run_all loop amounted to) and
# a parallel one (jobs=$(nproc), override with JOBS=n) — and their outputs
# are diffed to re-assert that parallelism never changes a byte. The
# testkit micro-bench groups (TESTKIT_BENCH_JSON) ride along.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cargo build --release --offline --workspace

echo "== runner: serial baseline (jobs=1) =="
./target/release/domino-run all --jobs 1 --out "$TMP/serial_out" --json "$TMP/serial.json"

echo "== runner: parallel (jobs=$JOBS) =="
./target/release/domino-run all --jobs "$JOBS" --out "$TMP/parallel_out" --json "$TMP/parallel.json"

echo "== runner: byte-identity across job counts =="
diff -r "$TMP/serial_out" "$TMP/parallel_out"
echo "identical"

echo "== micro-benches (testkit harness) =="
TESTKIT_BENCH_JSON="$TMP/micro" cargo bench --offline -p domino-bench -q

serial_ms=$(sed -n 's/^  "wall_ms": \([0-9.]*\),$/\1/p' "$TMP/serial.json")
parallel_ms=$(sed -n 's/^  "wall_ms": \([0-9.]*\),$/\1/p' "$TMP/parallel.json")
speedup=$(awk -v a="$serial_ms" -v b="$parallel_ms" 'BEGIN { printf "%.2f", a / b }')

# Versioned history: archive the previous snapshot before overwriting,
# so `domino-profile diff <old> <new>` can track medians run-over-run.
if [ -f BENCH_runner.json ]; then
  mkdir -p results/bench_history
  stamp="$(date -u +%Y%m%dT%H%M%SZ)"
  cp BENCH_runner.json "results/bench_history/BENCH_runner_${stamp}.json"
  echo "archived previous snapshot to results/bench_history/BENCH_runner_${stamp}.json"
fi

{
  echo '{'
  echo '  "schema": 2,'
  echo '  "suite": "domino-runner",'
  echo "  \"jobs\": $JOBS,"
  echo "  \"host_cpus\": $(nproc),"
  echo "  \"serial_wall_ms\": $serial_ms,"
  echo "  \"parallel_wall_ms\": $parallel_ms,"
  echo "  \"speedup\": $speedup,"
  echo '  "serial":'
  sed 's/^/  /' "$TMP/serial.json"
  echo '  ,"parallel":'
  sed 's/^/  /' "$TMP/parallel.json"
  echo '  ,"micro": {'
  first=1
  for f in "$TMP"/micro/*.json; do
    [ -e "$f" ] || continue
    group=$(basename "$f" .json)
    [ "$first" -eq 1 ] || echo '  ,'
    first=0
    echo "  \"$group\":"
    sed 's/^/  /' "$f"
  done
  echo '  }'
  echo '}'
} > BENCH_runner.json

if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool BENCH_runner.json > /dev/null
fi

# Advisory run-over-run check: compare the fresh snapshot's micro-bench
# medians against the most recent archived one under the noise-tolerant
# threshold. Wall times on a shared host can blow past it for reasons
# unrelated to the code, so this warns instead of failing — the exact,
# zero-threshold cost gate lives in ci.sh (`domino-profile diff` over
# the committed folded profile).
latest="$(ls -1 results/bench_history/BENCH_runner_*.json 2>/dev/null | tail -1 || true)"
if [ -n "$latest" ]; then
  echo "== bench regression check vs $(basename "$latest") =="
  ./target/release/domino-profile diff "$latest" BENCH_runner.json \
      || echo "WARNING: bench medians regressed past tolerance (wall noise possible; investigate with domino-profile diff)"
fi

echo "== wrote BENCH_runner.json (serial ${serial_ms} ms, jobs=$JOBS ${parallel_ms} ms, speedup ${speedup}x) =="
