#include "serve/query_engine.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/contracts.h"
#include "common/timer.h"
#include "graph/subgraph.h"
#include "serve/validate.h"
#include "telemetry/metrics.h"

namespace kgov::serve {

namespace {

// Serving-subsystem telemetry; pointers resolved once. The queue-depth
// gauge lives in the AdmissionController (published with the atomic
// Gauge::Add), not here.
struct ServeMetrics {
  telemetry::Counter* queries;
  telemetry::Counter* cache_hits;
  telemetry::Counter* cache_misses;
  telemetry::Counter* cache_evictions;
  telemetry::Counter* cache_invalidations;
  telemetry::Counter* sf_leaders;
  telemetry::Counter* sf_followers;
  telemetry::Counter* sf_timeouts;
  telemetry::Counter* errors;
  telemetry::Counter* degraded_queries;
  telemetry::Counter* epoch_refreshes;
  telemetry::Counter* invalidation_selective;
  telemetry::Counter* invalidation_full;
  telemetry::Histogram* query_span;

  static const ServeMetrics& Get() {
    static const ServeMetrics m = [] {
      telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Global();
      return ServeMetrics{reg.GetCounter("serve.queries"),
                          reg.GetCounter("serve.cache.hits"),
                          reg.GetCounter("serve.cache.misses"),
                          reg.GetCounter("serve.cache.evictions"),
                          reg.GetCounter("serve.cache.invalidations"),
                          reg.GetCounter("serve.singleflight.leaders"),
                          reg.GetCounter("serve.singleflight.followers"),
                          reg.GetCounter("serve.singleflight.timeouts"),
                          reg.GetCounter("serve.errors"),
                          reg.GetCounter("serve.degraded_queries"),
                          reg.GetCounter("serve.epoch_refreshes"),
                          reg.GetCounter("stream.invalidation.selective"),
                          reg.GetCounter("stream.invalidation.full"),
                          reg.GetHistogram("span.serve.query.seconds")};
    }();
    return m;
  }
};

}  // namespace

Status QueryEngineOptions::Validate() const {
  KGOV_RETURN_IF_ERROR(eipd.Validate());
  if (top_k < 1) {
    return Status::InvalidArgument("QueryEngineOptions.top_k must be >= 1");
  }
  if (num_threads < 1) {
    return Status::InvalidArgument(
        "QueryEngineOptions.num_threads must be >= 1");
  }
  if (cache_capacity < 1) {
    return Status::InvalidArgument(
        "QueryEngineOptions.cache_capacity must be >= 1");
  }
  if (cache_shards < 1) {
    return Status::InvalidArgument(
        "QueryEngineOptions.cache_shards must be >= 1");
  }
  if (!(full_flush_threshold > 0.0) || full_flush_threshold > 1.0) {
    return Status::InvalidArgument(
        "QueryEngineOptions.full_flush_threshold must be in (0, 1]");
  }
  if (!(single_flight_deadline_seconds > 0.0)) {
    return Status::InvalidArgument(
        "QueryEngineOptions.single_flight_deadline_seconds must be > 0");
  }
  KGOV_RETURN_IF_ERROR(admission.Validate());
  return Status::OK();
}

StatusOr<std::unique_ptr<QueryEngine>> QueryEngine::Create(
    const core::OnlineKgOptimizer* source,
    const std::vector<graph::NodeId>* candidates,
    QueryEngineOptions options) {
  KGOV_RETURN_IF_ERROR(options.Validate());
  if (source == nullptr) {
    return Status::InvalidArgument("QueryEngine requires a non-null source");
  }
  if (candidates == nullptr || candidates->empty()) {
    return Status::InvalidArgument(
        "QueryEngine requires a non-empty candidate set");
  }
  return std::unique_ptr<QueryEngine>(
      new QueryEngine(source, candidates, std::move(options)));
}

QueryEngine::QueryEngine(const core::OnlineKgOptimizer* source,
                         const std::vector<graph::NodeId>* candidates,
                         QueryEngineOptions options)
    : source_(source),
      candidates_(candidates),
      options_(std::move(options)),
      partition_(source->partition()),
      pinned_(source->CurrentEpoch()),
      cache_(options_.cache_capacity, options_.cache_shards),
      admission_(options_.admission),
      workspaces_(options_.num_threads),
      pool_(std::make_unique<ThreadPool>(options_.num_threads)) {}

QueryEngine::~QueryEngine() = default;

uint64_t QueryEngine::PinnedEpochNumber() const {
  ReaderMutexLock lock(epoch_mu_);
  return pinned_.epoch;
}

QueryEngine::ServeStats QueryEngine::GetServeStats() const {
  ServeStats stats;
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.leaders = leaders_.load(std::memory_order_relaxed);
  stats.followers = followers_.load(std::memory_order_relaxed);
  stats.timeouts = timeouts_.load(std::memory_order_relaxed);
  stats.shed = admission_.GetStats().shed;
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.degraded = degraded_served_.load(std::memory_order_relaxed);
  return stats;
}

void QueryEngine::MaybeRefreshEpoch() {
  const uint64_t latest = source_->CurrentEpochNumber();
  {
    ReaderMutexLock lock(epoch_mu_);
    if (pinned_.epoch >= latest) return;
  }
  // Pin the fresh epoch outside the exclusive section (CurrentEpoch takes
  // the optimizer's own lock), then swap under ours.
  core::ServingEpoch fresh = source_->CurrentEpoch();
  size_t dropped = 0;
  bool full = true;
  {
    WriterMutexLock lock(epoch_mu_);
    if (fresh.epoch <= pinned_.epoch) return;  // raced with another refresh
    if (options_.enable_cache) {
      // Selective invalidation: union the published deltas spanning
      // (pinned, fresh]. Unknowable (history gap, full delta, feature
      // off) or near-global changes fall back to a wholesale flush.
      std::vector<uint32_t> changed;
      if (options_.selective_invalidation &&
          source_->CollectChangedClusters(pinned_.epoch, fresh.epoch,
                                          &changed)) {
        const size_t clusters = partition_->num_clusters();
        full = clusters == 0 ||
               static_cast<double>(changed.size()) >
                   options_.full_flush_threshold *
                       static_cast<double>(clusters);
      }
      // Advance the cache BEFORE the new pin becomes visible: a reader
      // that sees fresh.epoch can then never hit an entry the delta
      // invalidated (see the lock-order proof in result_cache.h).
      dropped = cache_.AdvanceEpoch(fresh.epoch, changed, full);
    }
    pinned_ = std::move(fresh);
  }
  const ServeMetrics& metrics = ServeMetrics::Get();
  metrics.epoch_refreshes->Increment();
  if (options_.enable_cache) {
    if (full) {
      metrics.invalidation_full->Increment();
    } else {
      metrics.invalidation_selective->Increment();
    }
    metrics.cache_invalidations->Increment(dropped);
  }
}

std::vector<uint32_t> QueryEngine::DependencyClusters(
    graph::GraphView view, const ppr::QuerySeed& seed) const {
  std::vector<graph::NodeId> roots;
  roots.reserve(seed.links.size());
  for (const auto& [node, weight] : seed.links) roots.push_back(node);
  // Every edge a walk of length <= L from the seed can traverse has its
  // source inside this ball, and cluster identity is keyed by edge
  // source (matching the optimizer's bitwise diff), so these clusters
  // over-approximate everything the ranking depends on.
  const std::vector<graph::NodeId> ball = graph::CollectOutNeighborhood(
      view, roots, options_.eipd.max_length);
  return partition_->ClustersOf(ball);
}

ppr::PropagationWorkspace* QueryEngine::WorkspaceForThisThread() {
  const size_t index = pool_->CurrentWorkerIndex();
  if (index == ThreadPool::kNotAWorker) {
    return &ppr::ThreadLocalWorkspace();
  }
  return &workspaces_[index];
}

ppr::EipdOptions QueryEngine::EffectiveEipd(bool degraded) const {
  ppr::EipdOptions eipd = options_.eipd;
  if (degraded) {
    eipd.max_length =
        std::min(eipd.max_length, options_.admission.degraded_max_length);
  }
  return eipd;
}

std::chrono::nanoseconds QueryEngine::FollowerDeadline() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(options_.single_flight_deadline_seconds));
}

StatusOr<RankedAnswers> QueryEngine::ServeOne(const ppr::QuerySeed& seed) {
  MaybeRefreshEpoch();
  core::ServingEpoch epoch;
  {
    ReaderMutexLock lock(epoch_mu_);
    epoch = pinned_;
  }
  // Debug builds re-check the pinned epoch's structural contract on every
  // query (compiled out under NDEBUG; see serve/validate.h).
  KGOV_DCHECK_OK(ValidateEpochPin(epoch));

  const ServeMetrics& metrics = ServeMetrics::Get();
  const bool degraded = admission_.degraded();

  RankedAnswers result;
  result.epoch = epoch.epoch;
  result.degraded = degraded;

  const std::string key = EncodeCacheKey(seed);
  if (options_.enable_cache && cache_.Get(key, epoch.epoch, &result.answers)) {
    result.from_cache = true;
    result.degraded = false;  // cached rankings are always full depth
    hits_.fetch_add(1, std::memory_order_relaxed);
    metrics.cache_hits->Increment();
    return result;
  }

  ppr::EipdEngine engine(epoch.view(), EffectiveEipd(degraded));
  // Validate before taking flight leadership: an invalid seed is an ERROR
  // outcome, not a miss, and no valid query shares its flight key anyway.
  Status valid = engine.ValidateSeed(seed);
  if (!valid.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    metrics.errors->Increment();
    return valid;
  }

  auto compute = [&]() -> Status {
    StatusOr<std::vector<ppr::ScoredAnswer>> ranked = engine.Rank(
        seed, *candidates_, options_.top_k, WorkspaceForThisThread());
    if (!ranked.ok()) return ranked.status();
    result.answers = std::move(ranked).value();
    return Status::OK();
  };
  auto publish = [&]() {
    // Degraded rankings are never cached: they are not bitwise-comparable
    // to the full-depth result a later hit would be checked against.
    if (options_.enable_cache && !degraded) {
      if (cache_.Put(key, result.answers,
                     DependencyClusters(epoch.view(), seed), epoch.epoch)) {
        metrics.cache_evictions->Increment();
      }
    }
  };
  auto count_propagation = [&]() {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (options_.enable_cache) metrics.cache_misses->Increment();
    if (degraded) {
      degraded_served_.fetch_add(1, std::memory_order_relaxed);
      metrics.degraded_queries->Increment();
    }
  };

  if (options_.enable_single_flight) {
    const std::string flight_key = EncodeFlightKey(key, epoch.epoch, degraded);
    SingleFlightGroup::JoinOutcome join = flights_.JoinOrLead(flight_key);
    if (join.token != nullptr) {
      // Leader. Re-probe the cache first: the previous leader for this
      // key publishes to the cache BEFORE retiring its flight, so a miss
      // that wins leadership just after the old flight retired may find
      // the value already published - serving it keeps "exactly one
      // propagation per cold key" exact instead of best-effort.
      if (options_.enable_cache &&
          cache_.Get(key, epoch.epoch, &result.answers)) {
        join.token->Complete(Status::OK(), result.answers);
        result.from_cache = true;
        result.degraded = false;
        hits_.fetch_add(1, std::memory_order_relaxed);
        metrics.cache_hits->Increment();
        return result;
      }
      Status computed = compute();
      if (!computed.ok()) {
        join.token->Complete(computed, {});
        errors_.fetch_add(1, std::memory_order_relaxed);
        metrics.errors->Increment();
        return computed;
      }
      publish();  // to the cache BEFORE Complete (see the re-probe above)
      join.token->Complete(Status::OK(), result.answers);
      count_propagation();
      leaders_.fetch_add(1, std::memory_order_relaxed);
      metrics.sf_leaders->Increment();
      return result;
    }

    SingleFlightGroup::WaitResult wait =
        SingleFlightGroup::Wait(join.flight, FollowerDeadline());
    if (wait.published) {
      if (!wait.status.ok()) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        metrics.errors->Increment();
        return wait.status;
      }
      result.answers = std::move(wait.answers);
      result.coalesced = true;
      followers_.fetch_add(1, std::memory_order_relaxed);
      metrics.sf_followers->Increment();
      if (degraded) {
        degraded_served_.fetch_add(1, std::memory_order_relaxed);
        metrics.degraded_queries->Increment();
      }
      return result;
    }
    // Deadline expired: detach and propagate for ourselves (counted as a
    // timeout AND a miss; the flight stays live for other followers).
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    metrics.sf_timeouts->Increment();
  }

  Status computed = compute();
  if (!computed.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    metrics.errors->Increment();
    return computed;
  }
  publish();
  count_propagation();
  return result;
}

std::future<StatusOr<RankedAnswers>> QueryEngine::Enqueue(
    const ppr::QuerySeed& seed) {
  Timer enqueue_timer;
  return pool_->Submit([this, &seed, enqueue_timer]() {
    StatusOr<RankedAnswers> served = ServeOne(seed);
    // End-to-end latency: queue wait + propagation (or cache hit),
    // observed at completion so gather order cannot inflate it.
    const double elapsed = enqueue_timer.ElapsedSeconds();
    ServeMetrics::Get().query_span->Observe(elapsed);
    admission_.Finish(elapsed);
    return served;
  });
}

StatusOr<RankedAnswers> QueryEngine::Submit(const ppr::QuerySeed& seed) {
  ServeMetrics::Get().queries->Increment();
  queries_.fetch_add(1, std::memory_order_relaxed);
  // A shed query is answered immediately with kResourceExhausted and never
  // enqueued (the controller counts it; its slot was never taken, so no
  // Finish).
  KGOV_RETURN_IF_ERROR(admission_.TryAdmit());
  return Enqueue(seed).get();
}

std::vector<StatusOr<RankedAnswers>> QueryEngine::SubmitBatch(
    const std::vector<ppr::QuerySeed>& seeds) {
  const size_t n = seeds.size();
  ServeMetrics::Get().queries->Increment(n);
  queries_.fetch_add(n, std::memory_order_relaxed);

  // Admission: one window slot per query, all taken before anything is
  // enqueued so shed counts are deterministic within one call. Shed
  // queries keep their kResourceExhausted status and get no future.
  std::vector<Status> admitted(n);
  for (size_t i = 0; i < n; ++i) admitted[i] = admission_.TryAdmit();
  std::vector<std::future<StatusOr<RankedAnswers>>> futures(n);
  for (size_t i = 0; i < n; ++i) {
    if (admitted[i].ok()) futures[i] = Enqueue(seeds[i]);
  }

  std::vector<StatusOr<RankedAnswers>> results;
  results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (futures[i].valid()) {
      results.push_back(futures[i].get());
    } else {
      results.push_back(std::move(admitted[i]));
    }
  }
  return results;
}

}  // namespace kgov::serve
