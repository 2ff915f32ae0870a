#!/usr/bin/env bash
# The full kgov CI gate:
#   0. static analysis + lint (tools/ci/analyze.sh),
#   1. tier-1: configure + build + ctest (Release-ish default flags),
#      with the durability kill-tests rerun standalone so their recovery
#      artifacts land in a known directory for the CI upload,
#   2. the ASan/UBSan pass (tools/ci/sanitize.sh),
#   3. the serving-path perf probe, emitting BENCH_serving.json at the
#      repo root so the queries/sec trajectory is tracked per commit,
#      plus the durability bench smoke run gating the WAL's flush-path
#      overhead below 5%, the scale bench smoke run gating per-size
#      kernel latency and the bounded million-node generator, and the
#      lock-rank detector overhead gate
#      (the default KGOV_LOCK_DEBUG=ON build must hold 98% of a plain
#      build's bench_concurrent_serving throughput - the hooks are one
#      dormant atomic load).
#
# Usage: tools/ci/check.sh [build-dir]
#   KGOV_SKIP_ANALYZE=1   skip step 0
#   KGOV_SKIP_SANITIZE=1  skip step 2 (e.g. toolchains without ASan)
#   KGOV_SKIP_BENCH=1     skip step 3
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"

if [[ "${KGOV_SKIP_ANALYZE:-0}" != "1" ]]; then
  echo "== [0/3] static analysis + lint =="
  "$REPO_ROOT/tools/ci/analyze.sh"
else
  echo "== [0/3] static analysis skipped (KGOV_SKIP_ANALYZE=1) =="
fi

echo "== [1/3] tier-1 build + tests =="
cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== [1/3] durability kill-tests (crash -> restart -> recover) =="
# Rerun the kill-test binary with the artifact dir pinned: every scenario
# leaves its expected/recovered ranking fingerprints and the crashed state
# directory there, and CI uploads the tree when the job fails.
export KGOV_DURABILITY_ARTIFACT_DIR="${KGOV_DURABILITY_ARTIFACT_DIR:-$BUILD_DIR/durability-kill-artifacts}"
rm -rf "$KGOV_DURABILITY_ARTIFACT_DIR"
mkdir -p "$KGOV_DURABILITY_ARTIFACT_DIR"
"$BUILD_DIR/tests/test_durability_kill"

if [[ "${KGOV_SKIP_SANITIZE:-0}" != "1" ]]; then
  echo "== [2/3] ASan/UBSan =="
  "$REPO_ROOT/tools/ci/sanitize.sh"
else
  echo "== [2/3] ASan/UBSan skipped (KGOV_SKIP_SANITIZE=1) =="
fi

if [[ "${KGOV_SKIP_BENCH:-0}" != "1" ]]; then
  echo "== [3/3] serving-path bench =="
  TELEMETRY_JSON="$REPO_ROOT/BENCH_serving_telemetry.json"
  rm -f "$TELEMETRY_JSON"
  "$BUILD_DIR/bench/bench_serving_path" \
      --json "$REPO_ROOT/BENCH_serving.json" \
      --telemetry-json "$TELEMETRY_JSON" \
      --benchmark_min_time=0.1

  # The bench must leave behind a well-formed telemetry snapshot with the
  # serving-latency histogram populated (docs/observability.md).
  if [[ ! -s "$TELEMETRY_JSON" ]]; then
    echo "FAIL: telemetry snapshot $TELEMETRY_JSON missing or empty" >&2
    exit 1
  fi
  python3 - "$TELEMETRY_JSON" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    snap = json.load(f)
for section in ("counters", "gauges", "histograms"):
    if section not in snap:
        sys.exit(f"FAIL: telemetry snapshot lacks '{section}'")
hist = snap["histograms"].get("serving.eipd.propagate.seconds")
if not hist or hist.get("count", 0) == 0:
    sys.exit("FAIL: serving.eipd.propagate.seconds histogram is empty")
for key in ("p50", "p95", "p99", "buckets"):
    if key not in hist:
        sys.exit(f"FAIL: serving latency histogram lacks '{key}'")
if snap["counters"].get("serving.eipd.queries", 0) == 0:
    sys.exit("FAIL: serving.eipd.queries counter is zero")
print("telemetry snapshot OK:",
      hist["count"], "propagations,",
      "p50={:.3g}s p99={:.3g}s".format(hist["p50"], hist["p99"]))
EOF

  echo "== [3/3] concurrent-serving bench (smoke) =="
  CONCURRENT_JSON="$BUILD_DIR/BENCH_concurrent_smoke.json"
  CONCURRENT_TELEMETRY="$REPO_ROOT/BENCH_concurrent_telemetry.json"
  rm -f "$CONCURRENT_JSON" "$CONCURRENT_TELEMETRY"
  "$BUILD_DIR/bench/bench_concurrent_serving" --smoke \
      --json "$CONCURRENT_JSON" \
      --telemetry-json "$CONCURRENT_TELEMETRY"

  # The sweep must show the cache-hit speedup and ideal thread scaling,
  # and leave a snapshot with the serve.* metrics populated
  # (docs/serving.md). On top of the sweep, two serving-path gates:
  #   * single-flight: a flash crowd of identical cold misses must
  #     collapse to EXACTLY one propagation per cold key (counter-verified
  #     from the engine's own outcome accounting, not timing);
  #   * shedding: a saturated admission window must shed with
  #     kResourceExhausted promptly - shed-path p99 under 50 ms (the
  #     whole point of load shedding is that rejection never queues
  #     behind the work it is rejecting).
  # The committed full-run artifact is BENCH_concurrent.json at the repo
  # root; the smoke json stays in the build dir so CI never clobbers it.
  python3 - "$CONCURRENT_JSON" "$CONCURRENT_TELEMETRY" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
if bench.get("cache_hit_speedup", 0) <= 1.0:
    sys.exit("FAIL: cache-hit speedup not > 1x")
scaling = bench.get("scaling")
if scaling is None:
    # Single-core host: the bench emits "scaling": null because the thread
    # sweep cannot measure real scaling there. Skip (don't gate) the check.
    print("SKIP: thread-scaling gate (host_cores={}, scaling is null)"
          .format(bench.get("host_cores", "?")))
elif scaling.get("ideal_1_to_4", 0) < 2.0:
    sys.exit("FAIL: ideal 1->4 thread scaling below 2x")

sf = bench.get("single_flight")
if not sf:
    sys.exit("FAIL: bench json lacks 'single_flight'")
if sf.get("propagations", -1) != sf.get("cold_keys", 0):
    sys.exit("FAIL: single-flight dedup broken: {} cold keys but {} "
             "propagations (want exactly one leader per key)"
             .format(sf.get("cold_keys"), sf.get("propagations")))
if sf.get("leaders", -1) != sf.get("cold_keys", 0):
    sys.exit("FAIL: single-flight leader count {} != cold keys {}"
             .format(sf.get("leaders"), sf.get("cold_keys")))
accounted = (sf.get("propagations", 0) + sf.get("followers", 0)
             + sf.get("hits", 0))
if accounted != sf.get("queries", -1):
    sys.exit("FAIL: single-flight outcome accounting broken: "
             "propagations+followers+hits={} != queries={}"
             .format(accounted, sf.get("queries")))

shed = bench.get("shedding")
if not shed:
    sys.exit("FAIL: bench json lacks 'shedding'")
if shed.get("shed", 0) == 0:
    sys.exit("FAIL: saturating workload shed nothing")
if shed.get("served", 0) == 0:
    sys.exit("FAIL: saturating workload served nothing (window stuck)")
if shed.get("shed_p99_seconds", 1.0) >= 0.05:
    sys.exit("FAIL: shed-path p99 {:.4f}s >= 50ms - rejection is "
             "queuing behind the work".format(shed["shed_p99_seconds"]))

with open(sys.argv[2]) as f:
    snap = json.load(f)
counters = snap.get("counters", {})
if counters.get("serve.queries", 0) == 0:
    sys.exit("FAIL: serve.queries counter is zero")
if counters.get("serve.cache.hits", 0) == 0:
    sys.exit("FAIL: serve.cache.hits counter is zero")
if counters.get("serve.singleflight.leaders", 0) == 0:
    sys.exit("FAIL: serve.singleflight.leaders counter is zero")
if counters.get("serve.admission.shed", 0) == 0:
    sys.exit("FAIL: serve.admission.shed counter is zero")
hist = snap.get("histograms", {}).get("span.serve.query.seconds")
if not hist or hist.get("count", 0) == 0:
    sys.exit("FAIL: span.serve.query.seconds histogram is empty")
for key in ("p50", "p95", "p99", "buckets"):
    if key not in hist:
        sys.exit(f"FAIL: serve latency histogram lacks '{key}'")
print("concurrent serving OK:",
      "{:.1f}x cache speedup,".format(bench["cache_hit_speedup"]),
      ("{:.2f}x ideal scaling,".format(scaling["ideal_1_to_4"])
       if scaling is not None else "scaling n/a (1 core),"),
      "{}:{} flash dedup,".format(sf["queries"], sf["propagations"]),
      "shed p99 {:.2g}s,".format(shed["shed_p99_seconds"]),
      hist["count"], "queries served")
EOF

  echo "== [3/3] streaming bench (smoke) =="
  STREAMING_JSON="$BUILD_DIR/BENCH_streaming_smoke.json"
  STREAMING_TELEMETRY="$BUILD_DIR/BENCH_streaming_telemetry_smoke.json"
  rm -f "$STREAMING_JSON" "$STREAMING_TELEMETRY"
  "$BUILD_DIR/bench/bench_streaming" --smoke \
      --json "$STREAMING_JSON" \
      --telemetry-json "$STREAMING_TELEMETRY"

  # The committed full-run artifact is BENCH_streaming.json at the repo
  # root; the smoke json stays in the build dir. The gates: the pipeline
  # must sustain a positive acknowledged-vote rate with epochs actually
  # published, and selective invalidation must retain a strictly higher
  # post-swap cache hit rate than the full-flush baseline on the same
  # workload - the property the whole delta machinery exists for.
  python3 - "$STREAMING_JSON" "$STREAMING_TELEMETRY" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
ingest = bench.get("ingest", {})
if ingest.get("votes_per_sec", 0) <= 0:
    sys.exit("FAIL: streaming ingest rate is zero")
if ingest.get("epochs_published", 0) == 0:
    sys.exit("FAIL: streaming ingest published no epochs")
if ingest.get("queries_served", 0) == 0:
    sys.exit("FAIL: no queries served concurrently with ingest")
inval = bench.get("invalidation", {})
sel = inval.get("hit_rate_selective", 0.0)
full = inval.get("hit_rate_full", 0.0)
if sel <= full:
    sys.exit(f"FAIL: selective invalidation hit rate {sel:.4f} not "
             f"strictly above full-flush {full:.4f}")
with open(sys.argv[2]) as f:
    snap = json.load(f)
counters = snap.get("counters", {})
for counter in ("stream.votes_ingested", "stream.micro_batches",
                "stream.epochs_published", "stream.invalidation.selective"):
    if counters.get(counter, 0) == 0:
        sys.exit(f"FAIL: telemetry counter '{counter}' is zero")
print("streaming OK:",
      "{:.0f} votes/s sustained,".format(ingest["votes_per_sec"]),
      "p99 {:.2f} ms serving,".format(ingest.get("serving_p99_ms", 0.0)),
      "retention {:.1%} selective vs {:.1%} full".format(sel, full))
EOF

  echo "== [3/3] scale bench (smoke) =="
  SCALE_JSON="$BUILD_DIR/BENCH_scale_smoke.json"
  rm -f "$SCALE_JSON"
  # Bounded: the smoke sweep (4096 / 1e5 / 1e6 nodes, few queries each)
  # including the million-node streaming-generator run must finish inside
  # 10 minutes; `timeout` turns a generator regression into a hard FAIL
  # instead of a hung CI job.
  timeout 600 "$BUILD_DIR/bench/bench_scale" --smoke --json "$SCALE_JSON"

  # The committed full-run artifact is BENCH_scale.json at the repo root;
  # the smoke json stays in the build dir. Gates:
  #   * the sweep must reach 1e6 nodes, with the million-node generator
  #     bounded in time (< 120 s) and the whole process bounded in memory
  #     (< 8 GB peak RSS);
  #   * every size reports the kernel's ("sparse") p99.
  python3 - "$SCALE_JSON" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
sizes = bench.get("sizes", [])
if not sizes:
    sys.exit("FAIL: scale bench json has no sizes")
max_nodes = max(s["num_nodes"] for s in sizes)
if max_nodes < 1_000_000:
    sys.exit(f"FAIL: scale sweep stopped at {max_nodes} nodes; the "
             "million-node generator smoke did not run")
rss = bench.get("max_rss_mb", 1e9)
if rss >= 8192:
    sys.exit(f"FAIL: scale bench peak RSS {rss:.0f} MB >= 8 GB")
for s in sizes:
    stats = s.get("sparse")
    if not stats or "p99_ms" not in stats:
        sys.exit("FAIL: size {} lacks sparse p99".format(s.get("num_nodes")))
    if s["num_nodes"] >= 1_000_000 and s.get("gen_seconds", 1e9) >= 120:
        sys.exit("FAIL: million-node generator took {:.1f}s >= 120s"
                 .format(s["gen_seconds"]))
million = [s for s in sizes if s["num_nodes"] >= 1_000_000][0]
print("scale OK:",
      "{} sizes to {} nodes,".format(len(sizes), max_nodes),
      "1e6 gen {:.1f}s,".format(million["gen_seconds"]),
      "1e6 p99 {:.3f} ms,".format(million["sparse"]["p99_ms"]),
      "peak RSS {:.0f} MB".format(rss))
EOF

  echo "== [3/3] durability bench (smoke) =="
  DURABILITY_JSON="$BUILD_DIR/BENCH_durability_smoke.json"
  rm -f "$DURABILITY_JSON"
  "$BUILD_DIR/bench/bench_durability" --smoke \
      --json "$DURABILITY_JSON" \
      --telemetry-json "$BUILD_DIR/BENCH_durability_telemetry_smoke.json"

  # The committed full-run artifact is BENCH_durability.json at the repo
  # root; the smoke json stays in the build dir. The gate: logging an
  # acknowledged vote must stay in the noise on the flush path (< 5% in
  # group-commit mode), and the recovery-side numbers must be present and
  # sane.
  python3 - "$DURABILITY_JSON" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
for key in ("snapshot_write_mbps", "mmap_load_verify_seconds",
            "wal_append_qps_group_commit", "wal_append_qps_sync_each",
            "wal_replay_qps", "wal_overhead_pct_nosync"):
    if key not in bench:
        sys.exit(f"FAIL: durability bench json lacks '{key}'")
overhead = bench["wal_overhead_pct_nosync"]
if overhead >= 5.0:
    sys.exit(f"FAIL: WAL flush-path overhead {overhead:.2f}% >= 5% "
             "(group-commit mode)")
if bench["wal_replay_qps"] <= bench["wal_append_qps_sync_each"]:
    sys.exit("FAIL: WAL replay slower than synced appends - recovery "
             "would lag the log")
print("durability OK:",
      "{:.2f}% WAL flush overhead,".format(overhead),
      "{:.0f} votes/s group-commit append,".format(
          bench["wal_append_qps_group_commit"]),
      "{:.0f} votes/s replay".format(bench["wal_replay_qps"]))
EOF
  echo "== [3/3] lock-rank detector overhead gate =="
  # The lock-order / schedule-exploration hooks (KGOV_LOCK_DEBUG, default
  # ON) are dormant outside tests: one relaxed atomic load per lock
  # operation. This gate holds that claim to a number: the default
  # (rank-tracking) build must stay within 2% of a KGOV_LOCK_DEBUG=OFF
  # build of the same bench. Best-of-3 per build because single-core CI
  # hosts jitter more than the margin being measured.
  PLAIN_BUILD_DIR="$BUILD_DIR-nolockdbg"
  cmake -B "$PLAIN_BUILD_DIR" -S "$REPO_ROOT" \
      -DKGOV_LOCK_DEBUG=OFF -DKGOV_BUILD_TESTS=OFF \
      -DKGOV_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$PLAIN_BUILD_DIR" -j "$(nproc)" \
      --target bench_concurrent_serving
  OVERHEAD_DIR="$BUILD_DIR/lockrank-overhead"
  rm -rf "$OVERHEAD_DIR"
  mkdir -p "$OVERHEAD_DIR"
  for run in 1 2 3; do
    "$BUILD_DIR/bench/bench_concurrent_serving" --smoke \
        --json "$OVERHEAD_DIR/tracked_$run.json" \
        --telemetry-json "$OVERHEAD_DIR/tracked_telemetry_$run.json" \
        >/dev/null
    "$PLAIN_BUILD_DIR/bench/bench_concurrent_serving" --smoke \
        --json "$OVERHEAD_DIR/plain_$run.json" \
        --telemetry-json "$OVERHEAD_DIR/plain_telemetry_$run.json" \
        >/dev/null
  done
  python3 - "$OVERHEAD_DIR" <<'EOF'
import glob, json, os, sys

def best_qps(pattern):
    best = 0.0
    for path in glob.glob(pattern):
        with open(path) as f:
            bench = json.load(f)
        for point in bench.get("sweep", []):
            best = max(best, point.get("measured_qps", 0.0))
    return best

out_dir = sys.argv[1]
tracked = best_qps(os.path.join(out_dir, "tracked_*.json"))
plain = best_qps(os.path.join(out_dir, "plain_*.json"))
if plain <= 0.0 or tracked <= 0.0:
    sys.exit("FAIL: lock-rank overhead gate got no qps samples")
ratio = tracked / plain
if ratio < 0.98:
    sys.exit("FAIL: rank-tracking build at {:.1f} qps vs plain "
             "{:.1f} qps ({:.1%}) - dormant-hook overhead exceeds "
             "2%".format(tracked, plain, ratio))
print("lock-rank overhead OK: tracked {:.1f} qps vs plain {:.1f} qps "
      "({:.1%} of plain, best of 3)".format(tracked, plain, ratio))
EOF
else
  echo "== [3/3] serving benches skipped (KGOV_SKIP_BENCH=1) =="
fi

echo "CI gate passed."
