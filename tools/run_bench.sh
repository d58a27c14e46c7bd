#!/usr/bin/env bash
# Runs the parallel-execution benchmark trajectory: the paper-figure
# benches (Fig 9/10/11) plus the parallel micro-benchmarks, each at
# 1 / 2 / N worker threads (N = hardware concurrency), appending every
# measurement to BENCH_parallel.json at the repo root.
#
# Usage: tools/run_bench.sh [build-dir] [records]
#   build-dir  cmake build directory with benchmarks built (default: build)
#   records    workload size knob for a quicker or fuller run
#              (default: 100000)
#
# All parallel paths are bit-identical to serial execution, so thread
# count only changes timing; see docs/PERFORMANCE.md for how to read the
# output file.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
RECORDS="${2:-100000}"
OUT="BENCH_parallel.json"

if [[ ! -x "$BUILD_DIR/bench/bench_parallel" ]]; then
  echo "run_bench.sh: $BUILD_DIR/bench/bench_parallel not found;" >&2
  echo "build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

HW=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 2)
THREAD_SET="1 2"
if [[ "$HW" -gt 2 ]]; then
  THREAD_SET="$THREAD_SET $HW"
fi

rm -f "$OUT"
echo "writing trajectory to $OUT (threads: $THREAD_SET; hardware: $HW)"

for t in $THREAD_SET; do
  echo "--- threads=$t ---"
  "$BUILD_DIR/bench/bench_parallel" \
    --records="$RECORDS" --threads="$t" --json="$OUT"
  "$BUILD_DIR/bench/fig09_comparison_time" \
    --records=5000 --reps=10 --threads="$t" --json="$OUT"
  "$BUILD_DIR/bench/fig10_cubegen_attributes" \
    --records="$RECORDS" --threads="$t" --json="$OUT"
  "$BUILD_DIR/bench/fig11_cubegen_records" \
    --base-records=$((RECORDS / 2)) --threads="$t" --json="$OUT"
done

echo
echo "wrote $(grep -c '"op"' "$OUT") measurements to $OUT"

# Counting-kernel before/after tiers: the same counting benches pinned to
# the seed reference loop, the cache-blocked kernel, and the SIMD tier,
# single-threaded so the record groups isolate the kernel change.
# tools/check_bench.py guards the resulting file. Each tier is a separate
# process, so every record's embedded metrics snapshot covers only its
# own kernel.
COUNTING_OUT="BENCH_counting.json"
rm -f "$COUNTING_OUT"
for kern in reference blocked simd; do
  echo "--- counting kernel=$kern (threads=1) ---"
  "$BUILD_DIR/bench/bench_parallel" \
    --records="$RECORDS" --threads=1 --kernel="$kern" --json="$COUNTING_OUT"
  "$BUILD_DIR/bench/fig10_cubegen_attributes" \
    --records="$RECORDS" --threads=1 --kernel="$kern" --json="$COUNTING_OUT"
done

echo
echo "wrote $(grep -c '"op"' "$COUNTING_OUT") measurements to $COUNTING_OUT"

# Serving-path ops: eager v2 load vs lazy v3 mapped load, heap after each,
# and a cold vs warm cached all-pairs sweep, single-threaded so the pairs
# isolate the format and the cache. tools/check_bench.py guards both
# resulting files.
SERVING_OUT="BENCH_serving.json"
rm -f "$SERVING_OUT"
echo "--- serving (threads=1) ---"
"$BUILD_DIR/bench/bench_parallel" \
  --records="$RECORDS" --threads=1 --serving --json="$SERVING_OUT"

echo
echo "wrote $(grep -c '"op"' "$SERVING_OUT") measurements to $SERVING_OUT"

# Streaming-ingestion ops: WAL-backed batch appends with auto-compaction
# and a concurrent query thread sweeping snapshots — append throughput,
# query latency percentiles under load, and recovery-on-open replay.
# tools/check_bench.py guards all three resulting files.
INGEST_OUT="BENCH_ingest.json"
rm -f "$INGEST_OUT"
echo "--- ingest (threads=$HW) ---"
"$BUILD_DIR/bench/bench_parallel" \
  --records="$RECORDS" --threads="$HW" --ingest --json="$INGEST_OUT"

echo
echo "wrote $(grep -c '"op"' "$INGEST_OUT") measurements to $INGEST_OUT"

# SIMD-vs-scalar tiers and the honest multi-core scaling sweep: per-tier
# counting rows at one thread plus SIMD-tier rows at 1..N threads, every
# record stamped with hardware_concurrency and the detected SIMD level so
# tools/check_bench.py knows which guards this machine can support.
SIMD_OUT="BENCH_simd.json"
rm -f "$SIMD_OUT"
echo "--- scaling (simd tiers + thread sweep) ---"
"$BUILD_DIR/bench/bench_parallel" \
  --records="$RECORDS" --scaling --json="$SIMD_OUT"

echo
echo "wrote $(grep -c '"op"' "$SIMD_OUT") measurements to $SIMD_OUT"

# Daemon serving trajectory: closed-loop peak throughput against a
# single-loop and a multi-loop opmapd (check_bench.py requires the
# multi-loop peak to reach 1.5x the single-loop one, skipped on one
# core), then an open-loop latency-vs-offered-load sweep against the
# multi-loop daemon — Poisson arrivals at fixed offered rates, so the
# recorded percentiles include queueing delay instead of the
# coordinated-omission bias a closed loop bakes in.
SERVER_OUT="BENCH_server.json"
rm -f "$SERVER_OUT"
OPMAP="$BUILD_DIR/src/tools/opmap"
SRV_DIR=$(mktemp -d)
trap 'rm -rf "$SRV_DIR"' EXIT
"$OPMAP" generate --records="$RECORDS" --attributes=12 \
  --out="$SRV_DIR/server.opmd"
"$OPMAP" cubes --data="$SRV_DIR/server.opmd" --out="$SRV_DIR/server.opmc"

LOOP_SET="1"
if [[ "$HW" -gt 1 ]]; then
  LOOP_SET="1 2"
fi
for l in $LOOP_SET; do
  echo "--- server closed-loop (loops=$l) ---"
  "$OPMAP" serve --cubes="$SRV_DIR/server.opmc" --loops="$l" \
    --listen="unix:$SRV_DIR/opmapd.sock" \
    >"$SRV_DIR/serve.out" 2>"$SRV_DIR/serve.err" &
  SERVE_PID=$!
  for _ in $(seq 100); do
    grep -q "opmapd listening" "$SRV_DIR/serve.out" && break
    sleep 0.1
  done
  grep -q "opmapd listening" "$SRV_DIR/serve.out" || \
    { cat "$SRV_DIR/serve.err" >&2; exit 1; }
  "$OPMAP" loadgen --connect="unix:$SRV_DIR/opmapd.sock" \
    --clients=8 --duration=3 --cubes="$SRV_DIR/server.opmc" \
    --json="$SERVER_OUT"
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
done

SWEEP_LOOPS=1
if [[ "$HW" -gt 1 ]]; then
  SWEEP_LOOPS=2
fi
echo "--- server open-loop sweep (loops=$SWEEP_LOOPS) ---"
"$OPMAP" serve --cubes="$SRV_DIR/server.opmc" --loops="$SWEEP_LOOPS" \
  --listen="unix:$SRV_DIR/opmapd.sock" \
  >"$SRV_DIR/serve.out" 2>"$SRV_DIR/serve.err" &
SERVE_PID=$!
for _ in $(seq 100); do
  grep -q "opmapd listening" "$SRV_DIR/serve.out" && break
  sleep 0.1
done
grep -q "opmapd listening" "$SRV_DIR/serve.out" || \
  { cat "$SRV_DIR/serve.err" >&2; exit 1; }
"$OPMAP" loadgen --connect="unix:$SRV_DIR/opmapd.sock" \
  --clients=4 --duration=3 --sweep=200,600,1800 \
  --json="$SERVER_OUT"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"

echo
echo "wrote $(grep -c '"op"' "$SERVER_OUT") measurements to $SERVER_OUT"
python3 tools/check_bench.py "$OUT" \
  "$COUNTING_OUT" "$SERVING_OUT" "$INGEST_OUT" "$SIMD_OUT" "$SERVER_OUT"
