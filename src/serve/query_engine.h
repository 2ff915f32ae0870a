// serve::QueryEngine - the concurrent query-serving subsystem.
//
// Production deployments serve QA traffic continuously while the
// OnlineKgOptimizer folds vote batches into the graph. This engine is the
// read side of that loop:
//
//  * It pins a core::ServingEpoch (ref-counted CSR snapshot + epoch
//    number) and serves every query from that frozen view; an optimizer
//    flush never blocks or mutates an in-flight query.
//  * Queries fan out across a ThreadPool. Each worker owns a reusable
//    ppr::PropagationWorkspace, so steady-state serving performs no
//    per-query allocation (the workspace is addressed by
//    ThreadPool::CurrentWorkerIndex - no locks, no thread_local growth).
//  * Results are memoized in a delta-aware ShardedResultCache. A cache
//    hit is bitwise identical to the propagation it replaced. On epoch
//    swap the engine asks the optimizer for the changed-cluster delta
//    (stream::EpochDelta history) and drops only entries whose dependency
//    clusters intersect it - selective invalidation, the read-side half
//    of the streaming pipeline. When the delta is unavailable, disabled,
//    or larger than full_flush_threshold of the partition, it falls back
//    to the old wholesale flush.
//  * Concurrent misses on the same (seed, epoch) key collapse onto one
//    single-flight leader propagation; followers receive the leader's
//    bitwise-identical result (serve/single_flight.h). The flight key
//    embeds the pinned epoch and the degraded bit, so a follower is
//    never handed a result computed under a different pin or depth.
//  * An AdmissionController bounds the admitted-and-unfinished window:
//    beyond capacity, Submit sheds immediately with kResourceExhausted
//    (never parks the caller), and under a sustained latency-SLO breach
//    the engine serves misses at a reduced eipd.max_length (degraded
//    rankings are flagged and never cached).
//  * Before each query the engine probes
//    OnlineKgOptimizer::CurrentEpochNumber() (one acquire load) and
//    re-pins when the optimizer has published a newer epoch, so fresh
//    results appear promptly without polling threads.
//
// Telemetry (kgov_telemetry registry): serve.queries, serve.cache.hits /
// .misses / .evictions / .invalidations, serve.singleflight.leaders /
// .followers / .timeouts, serve.admission.shed / .degraded (gauge),
// serve.degraded_queries, serve.errors, serve.epoch_refreshes,
// serve.queue_depth (gauge, published atomically via Gauge::Add from the
// admission window), span.serve.query.seconds (end-to-end latency
// histogram), stream.invalidation.selective / .full.
// serve.cache.misses counts PROPAGATIONS the engine ran (leaders,
// follower-timeout fallbacks, single-flight-off misses) - collapsed
// followers are counted in serve.singleflight.followers instead, so
// hits + misses + followers + shed (+ errors) == queries. See
// docs/serving.md.

#ifndef KGOV_SERVE_QUERY_ENGINE_H_
#define KGOV_SERVE_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/online_optimizer.h"
#include "ppr/eipd_engine.h"
#include "ppr/query_seed.h"
#include "ppr/ranking.h"
#include "serve/admission.h"
#include "serve/result_cache.h"
#include "serve/single_flight.h"
#include "stream/partition.h"

namespace kgov::serve {

struct QueryEngineOptions {
  /// Propagation settings used for every query.
  ppr::EipdOptions eipd;
  /// Answers returned per query.
  size_t top_k = 10;
  /// Serving worker threads.
  size_t num_threads = 4;
  /// Memoize per-seed rankings (delta-aware LRU). Disable to force every
  /// query through a fresh propagation (the cache-off baseline).
  bool enable_cache = true;
  /// Total cached seed rankings across all shards.
  size_t cache_capacity = 4096;
  /// Cache shard count (locks per shard; more shards = less contention).
  size_t cache_shards = 8;
  /// Invalidate selectively on epoch swap using the optimizer's published
  /// changed-cluster deltas. Disable to flush the whole cache on every
  /// swap (the pre-streaming behaviour, and the bench baseline).
  bool selective_invalidation = true;
  /// Fall back to a full flush when the changed-cluster set exceeds this
  /// fraction of the partition (a near-global change makes the selective
  /// sweep pointless bookkeeping). In (0, 1].
  double full_flush_threshold = 0.5;
  /// Collapse concurrent identical misses onto one leader propagation.
  /// Disable for the duplicated-work baseline (every miss propagates).
  bool enable_single_flight = true;
  /// How long a follower waits for its leader before detaching and
  /// propagating for itself. A backstop, not a latency target - it only
  /// fires if a leader stalls for a full propagation's worth of time.
  double single_flight_deadline_seconds = 5.0;
  /// Admission window + load-shedding + SLO degradation settings.
  AdmissionOptions admission;

  /// Checks every field range; returns InvalidArgument naming the first
  /// offending field. QueryEngine::Create fails fast with the result.
  Status Validate() const;
};

/// One served query result.
struct RankedAnswers {
  /// Top-k candidates by descending EIPD score (ties by node id).
  std::vector<ppr::ScoredAnswer> answers;
  /// Epoch the ranking was computed on.
  uint64_t epoch = 0;
  /// True when the ranking came out of the result cache.
  bool from_cache = false;
  /// True when the ranking was coalesced off another query's propagation
  /// (a single-flight follower).
  bool coalesced = false;
  /// True when the ranking was computed at the admission controller's
  /// degraded max_length instead of the configured depth. Degraded
  /// rankings are never cached.
  bool degraded = false;
};

/// Concurrent query-serving engine over an OnlineKgOptimizer's published
/// epochs. Submit/SubmitBatch are safe to call from any number of threads;
/// the engine never blocks on an in-progress optimizer flush.
class QueryEngine {
 public:
  /// Engine-local outcome counters (mirrored into global telemetry).
  /// Every query resolves to exactly one of {hit, miss, follower, shed,
  /// error}, so hits + misses + followers + shed + errors == queries;
  /// misses further splits into leaders + timeouts + plain misses
  /// (single-flight disabled).
  struct ServeStats {
    uint64_t queries = 0;
    /// Served from the result cache (first probe or leader re-probe).
    uint64_t hits = 0;
    /// Ran their own propagation.
    uint64_t misses = 0;
    /// Misses that led a single-flight (subset of misses).
    uint64_t leaders = 0;
    /// Coalesced onto another query's propagation.
    uint64_t followers = 0;
    /// Followers whose deadline expired and who self-computed (subset of
    /// misses, disjoint from leaders).
    uint64_t timeouts = 0;
    /// Shed by admission control with kResourceExhausted.
    uint64_t shed = 0;
    /// Failed with any other status (invalid seed, abandoned leader...).
    uint64_t errors = 0;
    /// Served at the degraded depth (compute or coalesced; not hits).
    uint64_t degraded = 0;
  };

  /// `source` and `candidates` are borrowed and must outlive the engine.
  /// `candidates` is the fixed answer-node universe ranked for every
  /// query (a QA system's answer documents). Fails fast on invalid
  /// options or null/empty inputs.
  static StatusOr<std::unique_ptr<QueryEngine>> Create(
      const core::OnlineKgOptimizer* source,
      const std::vector<graph::NodeId>* candidates,
      QueryEngineOptions options);

  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Serves one query: enqueues it on the worker pool and blocks until
  /// its ranking is ready. InvalidArgument when the seed does not fit the
  /// pinned epoch's view; ResourceExhausted (immediately, without
  /// queueing) when the admission window is full.
  StatusOr<RankedAnswers> Submit(const ppr::QuerySeed& seed);

  /// Serves a batch: every admitted query is enqueued up front as its own
  /// pool task (saturating the pool), then gathered in order. results[i]
  /// corresponds to seeds[i]. In-batch duplicates collapse through the
  /// cache and single-flight like any concurrent queries.
  std::vector<StatusOr<RankedAnswers>> SubmitBatch(
      const std::vector<ppr::QuerySeed>& seeds);

  /// The epoch queries are currently served from (pinned; may trail the
  /// optimizer's latest by at most one in-flight refresh).
  uint64_t PinnedEpochNumber() const KGOV_EXCLUDES(epoch_mu_);

  /// Cache counters since construction.
  ShardedResultCache::Stats CacheStats() const { return cache_.GetStats(); }

  /// Outcome counters since construction (see the identity on ServeStats).
  ServeStats GetServeStats() const;

  /// Admission window counters since construction.
  AdmissionController::Stats AdmissionStats() const {
    return admission_.GetStats();
  }

  /// True while the engine is serving misses at the degraded depth.
  bool Degraded() const { return admission_.degraded(); }

  const QueryEngineOptions& options() const { return options_; }

 private:
  QueryEngine(const core::OnlineKgOptimizer* source,
              const std::vector<graph::NodeId>* candidates,
              QueryEngineOptions options);

  /// Re-pins the serving epoch when the optimizer has published a newer
  /// one (cheap acquire-load probe; lock taken only on an actual swap),
  /// advancing the cache with the changed-cluster delta (or a full flush
  /// when no usable delta exists) BEFORE the new pin becomes visible.
  void MaybeRefreshEpoch() KGOV_EXCLUDES(epoch_mu_);

  /// The partition clusters `seed`'s ranking can depend on: the L-ball
  /// around its link nodes mapped through the streaming partition.
  std::vector<uint32_t> DependencyClusters(graph::GraphView view,
                                           const ppr::QuerySeed& seed) const;

  /// The worker-side body of one query.
  StatusOr<RankedAnswers> ServeOne(const ppr::QuerySeed& seed)
      KGOV_EXCLUDES(epoch_mu_);

  /// Runs ServeOne for one admitted query on the pool; the task records
  /// the end-to-end latency and releases the admission slot. `seed` must
  /// stay alive until the future is ready.
  std::future<StatusOr<RankedAnswers>> Enqueue(const ppr::QuerySeed& seed);

  /// The propagation settings for this query: the configured eipd, with
  /// max_length clamped to the admission controller's degraded depth
  /// while the engine is degraded.
  ppr::EipdOptions EffectiveEipd(bool degraded) const;

  std::chrono::nanoseconds FollowerDeadline() const;

  /// This worker's reusable workspace (falls back to the thread-local
  /// workspace for non-pool callers).
  ppr::PropagationWorkspace* WorkspaceForThisThread();

  const core::OnlineKgOptimizer* source_;
  const std::vector<graph::NodeId>* candidates_;
  QueryEngineOptions options_;
  /// The optimizer's fixed streaming partition (shared; never null).
  std::shared_ptr<const stream::GraphPartition> partition_;

  /// Pinned epoch; a shared (reader-writer) mutex so concurrent queries
  /// copy it without serializing on each other, while a refresh takes it
  /// exclusively.
  mutable SharedMutex epoch_mu_{KGOV_LOCK_RANK(kQueryEpochPin)};
  core::ServingEpoch pinned_ KGOV_GUARDED_BY(epoch_mu_);

  ShardedResultCache cache_;
  SingleFlightGroup flights_;
  AdmissionController admission_;
  std::vector<ppr::PropagationWorkspace> workspaces_;

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> leaders_{0};
  std::atomic<uint64_t> followers_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> degraded_served_{0};

  /// Declared last: destroyed first, so workers drain before the state
  /// they touch goes away.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace kgov::serve

#endif  // KGOV_SERVE_QUERY_ENGINE_H_
