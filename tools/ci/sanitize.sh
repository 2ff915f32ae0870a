#!/usr/bin/env bash
# Build and run the kgov test suite under AddressSanitizer + UBSan
# (including the durability suite and its fork-based kill-tests; the
# child's std::_Exit skips LSan's atexit hook, so the injected crashes do
# not produce false leak reports), then a dedicated UBSan-only pass over
# the serving / streaming / durability suites (-fsanitize=undefined with
# -fno-sanitize-recover=all and none of ASan's allocator interference),
# then the concurrency-heavy tests (serve, single-flight, admission,
# thread pool, online optimizer, durability recovery, lock-rank
# detector, schedule explorer) under ThreadSanitizer.
#
# Usage: tools/ci/sanitize.sh [build-dir] [ctest-args...]
#
# Uses the KGOV_SANITIZE CMake option; any failure (including a sanitizer
# report, via -fno-sanitize-recover=all) fails the script.
#   KGOV_SKIP_TSAN=1   skip the ThreadSanitizer pass (TSan and ASan cannot
#                      be combined, so it needs its own build tree)
#   KGOV_SKIP_UBSAN=1  skip the UBSan-only pass
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-sanitize}"
shift || true

echo "== sanitize: ASan/UBSan (full suite) =="
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DKGOV_SANITIZE=address,undefined \
    -DKGOV_BUILD_BENCHMARKS=OFF \
    -DKGOV_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j "$(nproc)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"

if [[ "${KGOV_SKIP_UBSAN:-0}" != "1" ]]; then
  echo "== sanitize: UBSan only (serving / streaming / durability) =="
  UBSAN_BUILD_DIR="${BUILD_DIR}-ubsan"
  cmake -B "$UBSAN_BUILD_DIR" -S "$REPO_ROOT" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DKGOV_SANITIZE=undefined \
      -DKGOV_BUILD_BENCHMARKS=OFF \
      -DKGOV_BUILD_EXAMPLES=OFF
  cmake --build "$UBSAN_BUILD_DIR" -j "$(nproc)" --target \
      test_query_engine test_single_flight test_admission \
      test_stream test_stream_invalidation test_online_optimizer \
      test_durability test_durability_kill
  ctest --test-dir "$UBSAN_BUILD_DIR" --output-on-failure \
      -R 'QueryEngine|SingleFlight|Admission|Stream|VoteIngestQueue|OnlineOptimizer|Durability' \
      "$@"
else
  echo "== sanitize: UBSan-only pass skipped (KGOV_SKIP_UBSAN=1) =="
fi

if [[ "${KGOV_SKIP_TSAN:-0}" != "1" ]]; then
  echo "== sanitize: TSan (serve / thread pool / online optimizer) =="
  TSAN_BUILD_DIR="${BUILD_DIR}-tsan"
  cmake -B "$TSAN_BUILD_DIR" -S "$REPO_ROOT" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DKGOV_SANITIZE=thread \
      -DKGOV_BUILD_BENCHMARKS=OFF \
      -DKGOV_BUILD_EXAMPLES=OFF
  cmake --build "$TSAN_BUILD_DIR" -j "$(nproc)" --target \
      test_query_engine test_thread_pool test_online_optimizer \
      test_resilience test_durability test_stream test_stream_invalidation \
      test_single_flight test_admission test_eipd_sparse \
      test_telemetry test_lock_rank test_sched_explorer test_fault_injection
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
  ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure \
      -R 'QueryEngine|ThreadPool|OnlineOptimizer|FaultPipeline|Durability|Stream|VoteIngestQueue|SingleFlight|Admission|Gauge|Sparse|KernelResolution|LockRank|SchedExplorer' \
      "$@"
else
  echo "== sanitize: TSan skipped (KGOV_SKIP_TSAN=1) =="
fi
