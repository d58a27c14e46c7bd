#!/usr/bin/env bash
# Builds the tree with sanitizers and runs the full test suite under them.
#
#   tools/ci_sanitize.sh [build-dir] [mode] [ctest-regex]
#     mode = address (default): ASan+UBSan — memory errors, UB, leaks; the
#            fault-injection, corruption and v3 mapped-serving paths run
#            with checking on.
#     mode = thread: TSan — data races in the parallel execution layer
#            (sharded cube builds, comparator fan-out, CAR counting, the
#            shared query cache under CompareAllPairs, lazy per-cube
#            verification of mapped stores, and the WAL-backed ingester
#            under concurrent writers).
#            ASan and TSan are mutually exclusive builds. Exits 1
#            without building when fewer than 2 CPUs are online.
#     ctest-regex (optional): restrict the run to matching tests — the
#            crash-drill CI job passes 'wal_test|ingest_test' to sweep
#            every power-cut injection point under the sanitizers.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
MODE="${2:-address}"
TESTS_REGEX="${3:-}"

case "$MODE" in
  address|thread) ;;
  *)
    echo "ci_sanitize.sh: unknown mode '$MODE' (address|thread)" >&2
    exit 2
    ;;
esac

if [[ "$MODE" == "thread" ]]; then
  # A race needs two threads running at once to show: on one online CPU
  # TSan sees only interleavings the scheduler happened to pick, and a
  # green run proves little. Refuse instead of passing quietly.
  ONLINE_CPUS="$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc)"
  if (( ONLINE_CPUS < 2 )); then
    echo "ci_sanitize.sh: thread mode needs >= 2 online CPUs, found" \
      "$ONLINE_CPUS" >&2
    exit 1
  fi
fi

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DOPMAP_SANITIZE="$MODE" \
  -DOPMAP_BUILD_BENCHMARKS=OFF
cmake --build "$BUILD_DIR" -j "$(nproc)"

if [[ "$MODE" == "thread" ]]; then
  # Make races fatal, and run the suite with the thread pool forced on so
  # every shard-and-merge path actually executes concurrently.
  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
  export OPMAP_THREADS=4
else
  # halt_on_error makes UBSan failures fatal instead of log-only; ASan's
  # detect_leaks stays on by default where the platform supports it.
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
  export ASAN_OPTIONS="strict_string_checks=1"
fi
if [[ -n "$TESTS_REGEX" ]]; then
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
    -R "$TESTS_REGEX"
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
fi
