#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/rng.h"
#include "core/resilience.h"
#include "graph/csr.h"
#include "ppr/eipd_engine.h"
#include "telemetry/metrics.h"
#include "votes/vote_encoder.h"

namespace kgov::perfbench {

// --- Tracer ----------------------------------------------------------------

const char* CallName(Call call) {
  switch (call) {
    case Call::kSubmit: return "serve.Submit";
    case Call::kSubmitBatch: return "serve.SubmitBatch";
    case Call::kOffer: return "stream.Offer";
    case Call::kDrainOnce: return "stream.DrainOnce";
    case Call::kCheckpoint: return "durability.Checkpoint";
    case Call::kRecover: return "durability.Recover";
    case Call::kOptimizerRestore: return "core.OnlineKgOptimizer";
    case Call::kEngineCreate: return "serve.QueryEngine.Create";
    case Call::kFirstQuery: return "serve.FirstQuery";
  }
  return "unknown";
}

bool Tracer::Active(uint64_t request) const {
  if (!enabled_) return false;
  // splitmix64 finalizer: decorrelates the choice from request order.
  uint64_t z = request + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return ((z ^ (z >> 31)) & 1) != 0;
}

int64_t Tracer::Nanos(TimePoint t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

void Tracer::Merge(std::vector<Span> spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::vector<double> Tracer::DurationsUs(Call call) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.call != call) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"call\": \"%s\", \"flags\": %u, \"items\": %u, "
                 "\"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64
                 ", \"request\": %" PRIu64 "}\n",
                 CallName(s.call), s.flags, s.items, s.start_ns, s.end_ns,
                 s.request);
  }
  return std::fclose(out) == 0;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

// --- System ----------------------------------------------------------------

std::unique_ptr<System> System::Create(
    const graph::WeightedDigraph& graph,
    const std::vector<graph::NodeId>* candidates, SystemConfig config) {
  auto system = std::make_unique<System>();
  system->config = std::move(config);
  system->candidates = candidates;
  const SystemConfig& c = system->config;
  std::error_code ec;
  std::filesystem::remove_all(c.dir, ec);
  durability::DurabilityOptions durability_options;
  durability_options.dir = c.dir;
  durability_options.wal.sync_each_append = true;
  StatusOr<durability::DurabilityManager> opened =
      durability::DurabilityManager::Open(durability_options);
  KGOV_CHECK(opened.ok());
  system->durability = std::make_unique<durability::DurabilityManager>(
      std::move(opened).value());
  system->online =
      std::make_unique<core::OnlineKgOptimizer>(graph, c.optimizer);
  stream::StreamPipelineOptions pipeline_options = c.pipeline;
  pipeline_options.checkpoint_entities = c.num_entities;
  pipeline_options.checkpoint_documents = c.num_documents;
  auto pipeline = stream::StreamPipeline::Create(
      system->online.get(), pipeline_options, system->durability.get());
  KGOV_CHECK(pipeline.ok());
  system->pipeline = std::move(pipeline).value();
  auto engine =
      serve::QueryEngine::Create(system->online.get(), candidates, c.engine);
  KGOV_CHECK(engine.ok());
  system->engine = std::move(engine).value();
  return system;
}

System::~System() {
  engine.reset();
  pipeline.reset();
  online.reset();
  durability.reset();
  std::error_code ec;
  std::filesystem::remove_all(config.dir, ec);
}

// --- Oracle ----------------------------------------------------------------

bool SameRanking(const std::vector<ppr::ScoredAnswer>& a,
                 const std::vector<ppr::ScoredAnswer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node) return false;
    if (std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

Oracle::Oracle(const std::vector<graph::NodeId>* candidates,
               serve::QueryEngineOptions options)
    : candidates_(candidates), options_(std::move(options)) {
  thread_ = std::thread([this] { Loop(); });
}

Oracle::~Oracle() { Finish(); }

void Oracle::Enqueue(const ppr::QuerySeed* seed, core::ServingEpoch epoch,
                     serve::RankedAnswers served) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (done_ || queue_.size() >= 8192) {
      dropped_.fetch_add(1);
      return;
    }
    queue_.push_back(Item{seed, std::move(epoch), std::move(served)});
  }
  cv_.notify_one();
}

std::vector<ppr::ScoredAnswer> Oracle::Cold(
    const ppr::QuerySeed& seed, const core::ServingEpoch& epoch) const {
  ppr::EipdEngine engine(epoch.view(), options_.eipd);
  StatusOr<std::vector<ppr::ScoredAnswer>> ranked =
      engine.Rank(seed, *candidates_, options_.top_k);
  return ranked.ok() ? std::move(ranked).value()
                     : std::vector<ppr::ScoredAnswer>{};
}

bool Oracle::Check(const ppr::QuerySeed& seed,
                   const core::ServingEpoch& epoch,
                   const serve::RankedAnswers& served) {
  ppr::EipdOptions eipd = options_.eipd;
  if (served.degraded) {
    eipd.max_length =
        std::min(eipd.max_length, options_.admission.degraded_max_length);
  }
  ppr::EipdEngine engine(epoch.view(), eipd);
  StatusOr<std::vector<ppr::ScoredAnswer>> cold =
      engine.Rank(seed, *candidates_, options_.top_k);
  const bool same = cold.ok() && served.epoch == epoch.epoch &&
                    SameRanking(served.answers, cold.value());
  checked_.fetch_add(1);
  if (!same) {
    if (mismatches_.fetch_add(1) < 5) {
      std::printf("ORACLE MISMATCH: epoch %" PRIu64 ", %zu served answers\n",
                  epoch.epoch, served.answers.size());
    }
  }
  return same;
}

void Oracle::Loop() {
  while (true) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
      if (queue_.empty()) return;
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    Check(*item.seed, item.epoch, item.served);
  }
}

void Oracle::Finish() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

// --- Registry --------------------------------------------------------------

namespace {

const char* const kCounters[] = {
    "serve.queries",          "serve.cache.hits",
    "serve.cache.misses",     "serve.cache.invalidations",
    "serve.epoch_refreshes",  "serve.singleflight.followers",
    "serve.admission.shed",   "serving.eipd.queries",
    "serving.eipd.kernel.dense", "online.flushes",
    "online.rollbacks",       "online.dead_lettered",
    "online.votes_applied",   "online.votes_quarantined",
    "split_merge.clusters",   "split_merge.votes_verified",
    "split_merge.votes_satisfied", "sgp.solver.iterations",
    "sgp.solver.solves",      "durability.wal.bytes",
    "durability.wal.appends", "stream.micro_batches",
    "stream.epochs_published",
};

const char* const kSpans[] = {
    "span.online.flush.seconds",      "span.sgp.solve.seconds",
    "span.split_merge.split.seconds", "span.split_merge.solve.seconds",
    "span.split_merge.merge.seconds", "span.durability.checkpoint.seconds",
};

}  // namespace

RegistryTotals RegistryTotals::Read() {
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Global();
  RegistryTotals totals;
  for (const char* name : kCounters) {
    totals.values[name] = static_cast<double>(reg.GetCounter(name)->Value());
  }
  for (const char* name : kSpans) {
    telemetry::HistogramSnapshot snap = reg.GetHistogram(name)->Snapshot();
    totals.values[std::string(name) + ".sum"] = snap.sum;
    totals.values[std::string(name) + ".count"] =
        static_cast<double>(snap.count);
  }
  return totals;
}

double RegistryTotals::Get(const std::string& name) const {
  auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

RegistryTotals RegistryTotals::Minus(const RegistryTotals& earlier) const {
  RegistryTotals out = *this;
  for (auto& [name, value] : out.values) value -= earlier.Get(name);
  return out;
}

// --- Load generation -------------------------------------------------------

namespace {

/// Queues `served` for the oracle when it came from the current epoch; the
/// queued item pins that epoch until it is checked. An answer from an
/// epoch already replaced is counted as unverifiable, so the benchmark
/// keeps no snapshot alive that kgov itself would have freed.
void SampleForOracle(const LoadContext& ctx, const ppr::QuerySeed* seed,
                     serve::RankedAnswers served) {
  core::ServingEpoch epoch = ctx.system->online->CurrentEpoch();
  if (epoch.epoch == served.epoch) {
    ctx.oracle->Enqueue(seed, std::move(epoch), std::move(served));
  } else {
    ctx.oracle->CountUnverifiable();
  }
}

uint8_t SpanFlags(const StatusOr<serve::RankedAnswers>& r) {
  if (!r.ok()) return 0;
  uint8_t flags = kSpanOk;
  if (r.value().from_cache) flags |= kSpanHit;
  if (r.value().coalesced) flags |= kSpanCoalesced;
  return flags;
}

}  // namespace

void RunQueryClient(const LoadContext& ctx, QueryClient* c) {
  UseFineTimerSlack();
  const std::vector<uint32_t>& sequence = *c->sequence;
  serve::QueryEngine& engine = *ctx.system->engine;
  Tracer& tracer = *ctx.tracer;
  const bool open = c->rate > 0.0;
  const double interval = open ? 1.0 / c->rate : 0.0;
  if (open) {
    c->latency_us.reserve(static_cast<size_t>(
        SecondsBetween(c->start, c->end) * c->rate + 16));
  }
  if (!open) WaitUntil(c->start);
  TimePoint previous_end = c->start;
  for (uint64_t i = 0;; ++i) {
    const TimePoint scheduled =
        open ? After(c->start, static_cast<double>(i) * interval)
             : Clock::now();
    if (scheduled >= c->end) break;
    if (open) WaitUntil(scheduled);
    const TimePoint sent = Clock::now();
    const ppr::QuerySeed& seed =
        (*ctx.seeds)[sequence[i % sequence.size()]];
    StatusOr<serve::RankedAnswers> result = engine.Submit(seed);
    const TimePoint done = Clock::now();
    ++c->attempted;
    if (!result.ok()) ++c->failed;
    const double latency =
        SecondsBetween(open ? scheduled : sent, done) * 1e6;
    c->latency_us.push_back(latency);
    c->sent_s.push_back(Stamp(open ? scheduled : sent));
    c->late_ms.push_back(
        SecondsBetween(open ? scheduled : previous_end, sent) * 1e3);
    const bool traced = tracer.Active(c->request_base + i);
    if (tracer.enabled()) {
      (traced ? c->traced_latency_us : c->untraced_latency_us)
          .push_back(latency);
    }
    if (traced) {
      c->spans.push_back(Span{Call::kSubmit, SpanFlags(result), 1,
                              tracer.Nanos(sent), tracer.Nanos(done),
                              c->request_base + i});
    }
    if (result.ok() && i % c->oracle_every == 0) {
      SampleForOracle(ctx, &seed, std::move(result).value());
    }
    previous_end = done;
  }
}

void RunQueryClients(const LoadContext& ctx,
                     std::vector<QueryClient>* clients) {
  std::vector<std::thread> threads;
  threads.reserve(clients->size());
  for (QueryClient& client : *clients) {
    threads.emplace_back([&ctx, &client] { RunQueryClient(ctx, &client); });
  }
  for (std::thread& t : threads) t.join();
}

std::vector<std::vector<ppr::ScoredAnswer>> ServeBatches(
    const LoadContext& ctx, const std::vector<uint32_t>& indices,
    size_t chunk, uint32_t oracle_every, QueryClient* out) {
  std::vector<std::vector<ppr::ScoredAnswer>> rankings(indices.size());
  Tracer& tracer = *ctx.tracer;
  std::vector<ppr::QuerySeed> seeds;
  for (size_t begin = 0; begin < indices.size(); begin += chunk) {
    const size_t end = std::min(indices.size(), begin + chunk);
    seeds.clear();
    for (size_t i = begin; i < end; ++i) {
      seeds.push_back((*ctx.seeds)[indices[i]]);
    }
    const TimePoint sent = Clock::now();
    std::vector<StatusOr<serve::RankedAnswers>> results =
        ctx.system->engine->SubmitBatch(seeds);
    const TimePoint done = Clock::now();
    const double latency = SecondsBetween(sent, done) * 1e6;
    const bool traced = tracer.Active(out->request_base + begin);
    if (traced) {
      out->spans.push_back(Span{Call::kSubmitBatch, kSpanOk,
                                static_cast<uint32_t>(end - begin),
                                tracer.Nanos(sent), tracer.Nanos(done),
                                out->request_base + begin});
    }
    for (size_t i = begin; i < end; ++i) {
      StatusOr<serve::RankedAnswers>& result = results[i - begin];
      ++out->attempted;
      out->latency_us.push_back(latency);
      out->sent_s.push_back(Stamp(sent));
      if (tracer.enabled()) {
        (traced ? out->traced_latency_us : out->untraced_latency_us)
            .push_back(latency);
      }
      if (!result.ok()) {
        ++out->failed;
        continue;
      }
      rankings[i] = result.value().answers;
      if (oracle_every > 0 && i % oracle_every == 0) {
        SampleForOracle(ctx, &(*ctx.seeds)[indices[i]],
                        std::move(result).value());
      }
    }
  }
  out->request_base += indices.size();
  return rankings;
}

void Absorb(QueryClient* client, bool latencies, Tracer* tracer,
            RunData* data) {
  if (latencies) {
    data->query_us.insert(data->query_us.end(), client->latency_us.begin(),
                          client->latency_us.end());
    data->query_sent_s.insert(data->query_sent_s.end(),
                              client->sent_s.begin(), client->sent_s.end());
    data->query_us_traced.insert(data->query_us_traced.end(),
                                 client->traced_latency_us.begin(),
                                 client->traced_latency_us.end());
    data->query_us_untraced.insert(data->query_us_untraced.end(),
                                   client->untraced_latency_us.begin(),
                                   client->untraced_latency_us.end());
  }
  data->late_ms.insert(data->late_ms.end(), client->late_ms.begin(),
                       client->late_ms.end());
  data->queries_attempted += client->attempted;
  data->queries_failed += client->failed;
  tracer->Merge(std::move(client->spans));
  *client = QueryClient{};
}

namespace {

/// Indices of the samples whose [end - duration, end] interval the
/// hypervisor disturbed least: stolen share at most kMaxShare, or at most
/// the share that keeps the cleanest third of the samples when the host
/// was busier than that for most of the run. The choice looks only at the
/// host's steal counters, never at the timings themselves.
std::vector<size_t> Undisturbed(const StealMonitor& steal,
                                const std::vector<double>& end_s,
                                const std::vector<double>& duration_s,
                                const char* what) {
  std::vector<double> shares(end_s.size());
  for (size_t i = 0; i < end_s.size(); ++i) {
    shares[i] = steal.Share(end_s[i] - duration_s[i], end_s[i]);
  }
  std::vector<double> sorted = shares;
  const double limit =
      std::max(StealMonitor::kMaxShare, Quantile(sorted, 1.0 / 3.0));
  std::vector<size_t> kept;
  for (size_t i = 0; i < shares.size(); ++i) {
    if (shares[i] <= limit) kept.push_back(i);
  }
  std::printf("  %-12s kept %zu of %zu (stolen share <= %.1f%%)\n", what,
              kept.size(), shares.size(), 100.0 * limit);
  return kept;
}

}  // namespace

std::vector<uint32_t> UniformSequence(size_t n, size_t count, uint64_t seed) {
  kgov::Rng rng(seed);
  std::vector<uint32_t> out(count);
  for (uint32_t& v : out) v = static_cast<uint32_t>(rng.NextIndex(n));
  return out;
}

void WarmCache(serve::QueryEngine* engine,
               const std::vector<ppr::QuerySeed>& seeds,
               const std::vector<uint32_t>& indices) {
  std::vector<ppr::QuerySeed> chunk;
  for (size_t begin = 0; begin < indices.size(); begin += 256) {
    chunk.clear();
    for (size_t i = begin; i < std::min(indices.size(), begin + 256); ++i) {
      chunk.push_back(seeds[indices[i]]);
    }
    for (const auto& r : engine->SubmitBatch(chunk)) KGOV_CHECK(r.ok());
  }
}

serve::QueryEngine::ServeStats Minus(const serve::QueryEngine::ServeStats& a,
                                     const serve::QueryEngine::ServeStats& b) {
  serve::QueryEngine::ServeStats d;
  d.queries = a.queries - b.queries;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.followers = a.followers - b.followers;
  d.shed = a.shed - b.shed;
  d.errors = a.errors - b.errors;
  return d;
}

double MeanReciprocalRank(
    const std::vector<std::vector<ppr::ScoredAnswer>>& rankings,
    const std::vector<graph::NodeId>& best) {
  double sum = 0.0;
  for (size_t i = 0; i < rankings.size(); ++i) {
    for (size_t r = 0; r < rankings[i].size(); ++r) {
      if (rankings[i][r].node == best[i]) {
        sum += 1.0 / static_cast<double>(r + 1);
        break;
      }
    }
  }
  return Ratio(sum, static_cast<double>(rankings.size()));
}

// --- Restarts --------------------------------------------------------------

namespace {

bool SameVote(const votes::Vote& a, const votes::Vote& b) {
  if (a.id != b.id || a.best_answer != b.best_answer ||
      a.answer_list != b.answer_list ||
      a.query.links.size() != b.query.links.size() ||
      std::memcmp(&a.weight, &b.weight, sizeof(double)) != 0) {
    return false;
  }
  for (size_t i = 0; i < a.query.links.size(); ++i) {
    if (a.query.links[i].first != b.query.links[i].first ||
        std::memcmp(&a.query.links[i].second, &b.query.links[i].second,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool SamePending(const std::vector<votes::Vote>& a,
                 const std::vector<votes::Vote>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameVote(a[i], b[i])) return false;
  }
  return true;
}

double Ms(TimePoint from, TimePoint to) { return SecondsBetween(from, to) * 1e3; }

}  // namespace

void CheckpointAndRestart(System* live,
                          const std::vector<const ppr::QuerySeed*>& check_seeds,
                          Tracer* tracer, Oracle* oracle, RunData* data) {
  const SystemConfig& config = live->config;
  const size_t rep = data->restart_ms.size();
  // The caller is between micro-batches with nothing queued, so a direct
  // checkpoint captures every acknowledged vote.
  const TimePoint c0 = Clock::now();
  Status checkpointed = live->durability->Checkpoint(
      *live->online, config.num_entities, config.num_documents);
  const TimePoint c1 = Clock::now();
  ++data->other_attempted;
  if (!checkpointed.ok()) {
    ++data->other_failed;
    std::printf("checkpoint before a restart failed: %s\n",
                checkpointed.ToString().c_str());
    return;
  }
  std::vector<Span> spans;
  if (tracer->enabled()) {
    spans.push_back(Span{Call::kCheckpoint, kSpanOk, 0, tracer->Nanos(c0),
                         tracer->Nanos(c1), rep});
  }
  const core::ServingEpoch live_epoch = live->online->CurrentEpoch();
  const std::vector<votes::Vote> pending = live->online->PendingVoteList();
  std::vector<std::vector<ppr::ScoredAnswer>> reference;
  for (const ppr::QuerySeed* seed : check_seeds) {
    reference.push_back(oracle->Cold(*seed, live_epoch));
  }

  ++data->other_attempted;
  const TimePoint t0 = Clock::now();
  StatusOr<durability::RecoveredState> recovered =
      durability::Recover(config.dir, durability::RecoverOptions{});
  const TimePoint t1 = Clock::now();
  if (!recovered.ok()) {
    ++data->other_failed;
    std::printf("restart %zu: recover failed: %s\n", rep,
                recovered.status().ToString().c_str());
    tracer->Merge(std::move(spans));
    return;
  }
  auto restored = std::make_unique<core::OnlineKgOptimizer>(
      recovered.value().graph, config.optimizer,
      recovered.value().ToRestoredState());
  const TimePoint t2 = Clock::now();
  StatusOr<std::unique_ptr<serve::QueryEngine>> created =
      serve::QueryEngine::Create(restored.get(), live->candidates,
                                 config.engine);
  const TimePoint t3 = Clock::now();
  if (!created.ok()) {
    ++data->other_failed;
    tracer->Merge(std::move(spans));
    return;
  }
  std::unique_ptr<serve::QueryEngine> engine = std::move(created).value();
  StatusOr<serve::RankedAnswers> first = engine->Submit(*check_seeds[0]);
  const TimePoint t4 = Clock::now();

  data->restart_ms.push_back(Ms(t0, t4));
  data->restart_end_s.push_back(Stamp(t4));
  data->recover_ms.push_back(Ms(t0, t1));
  data->restart_optimizer_ms.push_back(Ms(t1, t2));
  data->restart_engine_ms.push_back(Ms(t2, t3));
  data->restart_first_query_ms.push_back(Ms(t3, t4));
  if (tracer->enabled()) {
    const uint64_t id = static_cast<uint64_t>(rep);
    spans.push_back(Span{Call::kRecover, kSpanOk, 0, tracer->Nanos(t0),
                         tracer->Nanos(t1), id});
    spans.push_back(Span{Call::kOptimizerRestore, kSpanOk, 0,
                         tracer->Nanos(t1), tracer->Nanos(t2), id});
    spans.push_back(Span{Call::kEngineCreate, kSpanOk, 0,
                         tracer->Nanos(t2), tracer->Nanos(t3), id});
    spans.push_back(Span{Call::kFirstQuery, SpanFlags(first), 1,
                         tracer->Nanos(t3), tracer->Nanos(t4), id});
  }

  // Untimed: the restart must resume exactly the live state.
  bool same = first.ok() && recovered.value().epoch == live_epoch.epoch &&
              restored->CurrentEpochNumber() == live_epoch.epoch &&
              SamePending(restored->PendingVoteList(), pending) &&
              SameRanking(first.value().answers, reference[0]);
  for (size_t i = 1; i < check_seeds.size() && same; ++i) {
    StatusOr<serve::RankedAnswers> r = engine->Submit(*check_seeds[i]);
    same = r.ok() && SameRanking(r.value().answers, reference[i]);
  }
  if (!same) {
    ++data->other_failed;
    std::printf("restart %zu does not match the live epoch %" PRIu64 "\n",
                rep, live_epoch.epoch);
  }
  std::error_code ec;
  const auto bytes =
      std::filesystem::file_size(recovered.value().snapshot_path, ec);
  if (!ec) data->snapshot_mb = static_cast<double>(bytes) / 1e6;
  tracer->Merge(std::move(spans));
}

// --- Stage replays ---------------------------------------------------------

void ProbeServe(const System& system,
                const std::vector<const ppr::QuerySeed*>& seeds,
                RunData* data) {
  const RegistryTotals before = RegistryTotals::Read();
  for (const ppr::QuerySeed* seed : seeds) {
    for (int pass = 0; pass < 2; ++pass) {
      const TimePoint t0 = Clock::now();
      StatusOr<serve::RankedAnswers> r = system.engine->Submit(*seed);
      const TimePoint t1 = Clock::now();
      if (!r.ok() || r.value().coalesced) continue;
      (r.value().from_cache ? data->serve_hit_us : data->serve_miss_us)
          .push_back(SecondsBetween(t0, t1) * 1e6);
    }
  }
  const RegistryTotals delta = RegistryTotals::Read().Minus(before);
  data->dense_ratio = Ratio(delta.Get("serving.eipd.kernel.dense"),
                            delta.Get("serving.eipd.queries"));
}

void ReplayStages(const System& system,
                  const std::vector<std::vector<votes::Vote>>& batches,
                  const std::vector<const ppr::QuerySeed*>& seeds,
                  size_t max_encode_batches, RunData* data) {
  const core::OnlineKgOptimizer& online = *system.online;
  const graph::WeightedDigraph& graph = online.graph();
  size_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const TimePoint t0 = Clock::now();
    graph::WeightedDigraph copy(graph);
    const TimePoint t1 = Clock::now();
    Status valid =
        core::ValidateGraphUpdate(graph, copy, online.options().validator);
    const TimePoint t2 = Clock::now();
    graph::CsrSnapshot snapshot(graph);
    const TimePoint t3 = Clock::now();
    KGOV_CHECK(valid.ok());
    sink += copy.NumEdges() + snapshot.NumEdges();
    data->copy_ms.push_back(Ms(t0, t1));
    data->validate_ms.push_back(Ms(t1, t2));
    data->csr_ms.push_back(Ms(t2, t3));
  }
  votes::VoteEncoder encoder(&graph, online.options().optimizer.encoder);
  for (size_t i = 0; i < batches.size() && i < max_encode_batches; ++i) {
    const TimePoint t0 = Clock::now();
    auto encoded = encoder.EncodeBatch(batches[i]);
    const TimePoint t1 = Clock::now();
    if (encoded.ok()) sink += encoded.value().encoded_vote_ids.size();
    data->encode_ms.push_back(Ms(t0, t1));
  }
  const core::ServingEpoch epoch = online.CurrentEpoch();
  ppr::EipdEngine engine(epoch.view(), system.config.engine.eipd);
  ppr::PropagationWorkspace workspace;
  const size_t k = system.config.engine.top_k;
  for (const ppr::QuerySeed* seed : seeds) {
    (void)engine.Rank(*seed, *system.candidates, k, &workspace);  // warm
    const TimePoint t0 = Clock::now();
    auto ranked = engine.Rank(*seed, *system.candidates, k, &workspace);
    const TimePoint t1 = Clock::now();
    auto scored = engine.Scores(*seed, *system.candidates, &workspace);
    const TimePoint t2 = Clock::now();
    if (ranked.ok()) sink += ranked.value().size();
    if (scored.ok()) sink += scored.value().size();
    const double rank_us = SecondsBetween(t0, t1) * 1e6;
    data->rank_us.push_back(rank_us);
    data->topk_us.push_back(rank_us - SecondsBetween(t1, t2) * 1e6);
  }
  if (sink == 0) std::printf("(empty replay)\n");
}

// --- Report ----------------------------------------------------------------

namespace {

// Queries per block of the windowed query tail (p99 leaves ten above it).
constexpr size_t kTailBlock = 1000;

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

/// The user-facing timings with host-disturbed samples left out.
struct UserTimings {
  std::vector<double> setup_s;
  std::vector<double> query_us;
  std::vector<double> query_sent_s;
  std::vector<double> visible_ms;
  std::vector<double> restart_ms;
  double votes_per_s = 0.0;
};

UserTimings FilterTimings(const RunData& d) {
  std::printf("steal filter (timings the hypervisor disturbed are left "
              "out):\n");
  UserTimings t;
  for (size_t i : Undisturbed(d.steal, d.setup_end_s, d.setup_s, "set-ups")) {
    t.setup_s.push_back(d.setup_s[i]);
  }
  // Queries: the interval is [sent, sent + latency].
  std::vector<double> query_end(d.query_us.size());
  std::vector<double> query_dur(d.query_us.size());
  for (size_t i = 0; i < d.query_us.size(); ++i) {
    query_dur[i] = d.query_us[i] / 1e6;
    query_end[i] = d.query_sent_s[i] + query_dur[i];
  }
  for (size_t i : Undisturbed(d.steal, query_end, query_dur, "queries")) {
    t.query_us.push_back(d.query_us[i]);
    t.query_sent_s.push_back(d.query_sent_s[i]);
  }
  std::vector<double> vote_dur(d.vote_visible_ms.size());
  for (size_t i = 0; i < vote_dur.size(); ++i) {
    vote_dur[i] = d.vote_visible_ms[i] / 1e3;
  }
  for (size_t i :
       Undisturbed(d.steal, d.vote_visible_end_s, vote_dur, "votes")) {
    t.visible_ms.push_back(d.vote_visible_ms[i]);
  }
  std::vector<double> restart_dur(d.restart_ms.size());
  for (size_t i = 0; i < restart_dur.size(); ++i) {
    restart_dur[i] = d.restart_ms[i] / 1e3;
  }
  for (size_t i :
       Undisturbed(d.steal, d.restart_end_s, restart_dur, "restarts")) {
    t.restart_ms.push_back(d.restart_ms[i]);
  }
  // Votes applied per second of DrainOnce time, over the closed-loop
  // micro-batches of full size.
  std::vector<double> end_s;
  std::vector<double> dur_s;
  for (const auto& r : d.vote_rounds) {
    end_s.push_back(r[1]);
    dur_s.push_back(r[1] - r[0]);
  }
  double votes = 0.0;
  double seconds = 0.0;
  for (size_t i : Undisturbed(d.steal, end_s, dur_s, "vote rounds")) {
    votes += d.vote_rounds[i][2];
    seconds += dur_s[i];
  }
  t.votes_per_s = Ratio(votes, seconds);
  return t;
}

void AddEndToEnd(const RunData& d, const UserTimings& t, const Oracle& oracle,
                 Report* report) {
  const double query_failures =
      static_cast<double>(d.queries_failed + oracle.mismatches());
  report->Add("setup_s", Median(t.setup_s), "s");
  report->Add("query_p50_us", Median(t.query_us), "us");
  report->Add("query_ok_ratio",
              1.0 - Ratio(query_failures,
                          static_cast<double>(d.queries_attempted)),
              "ratio");
  report->Add("vote_visible_p50_ms", Median(t.visible_ms), "ms");
  report->Add("votes_per_s", t.votes_per_s, "1/s");
  report->Add("vote_ok_ratio",
              Ratio(static_cast<double>(d.votes_applied),
                    static_cast<double>(d.votes_offered)),
              "ratio");
  report->Add("answer_mrr", d.answer_mrr, "ratio");
  report->Add("restart_ms", Median(t.restart_ms), "ms");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void AddPerLayer(const RunData& d, const UserTimings& t, const Tracer& tracer,
                 Report* report) {
  const RegistryTotals& r = d.registry;
  const serve::QueryEngine::ServeStats& s = d.serve_window;
  const double queries = static_cast<double>(s.queries);
  const double flushes = r.Get("online.flushes");
  const double flush_ms =
      1e3 * Ratio(r.Get("span.online.flush.seconds.sum"), flushes);
  const double solve_ms =
      1e3 * Ratio(r.Get("span.sgp.solve.seconds.sum"), flushes);
  const double split_ms =
      1e3 * Ratio(r.Get("span.split_merge.split.seconds.sum"), flushes);
  const double cluster_ms =
      1e3 * Ratio(r.Get("span.split_merge.solve.seconds.sum"), flushes);
  const double merge_ms =
      1e3 * Ratio(r.Get("span.split_merge.merge.seconds.sum"), flushes);
  const double copy_ms = Median(d.copy_ms);
  const double validate_ms = Median(d.validate_ms);
  const double csr_ms = Median(d.csr_ms);

  // serve
  report->Add("serve.hit_ratio", Ratio(static_cast<double>(s.hits), queries),
              "ratio");
  report->Add("serve.hit_us", Median(d.serve_hit_us), "us");
  report->Add("serve.miss_us", Median(d.serve_miss_us), "us");
  report->Add("serve.coalesced_ratio",
              Ratio(static_cast<double>(s.followers), queries), "ratio");
  report->Add("serve.shed_ratio", Ratio(static_cast<double>(s.shed), queries),
              "ratio");
  report->Add("serve.invalidated_per_epoch",
              Ratio(r.Get("serve.cache.invalidations"),
                    r.Get("serve.epoch_refreshes")),
              "entries/epoch");
  report->Add("serve.epoch_refreshes", r.Get("serve.epoch_refreshes"),
              "count");
  // ppr
  report->Add("ppr.rank_us", Median(d.rank_us), "us");
  report->Add("ppr.topk_us", Median(d.topk_us), "us");
  report->Add("ppr.dense_ratio", d.dense_ratio, "ratio");
  // stream
  report->Add("stream.offer_us", Median(tracer.DurationsUs(Call::kOffer)),
              "us");
  report->Add("stream.queue_wait_ms", Median(d.queue_wait_ms), "ms");
  report->Add("stream.drain_ms",
              Median(tracer.DurationsUs(Call::kDrainOnce)) / 1e3, "ms");
  report->Add("stream.batch_votes", Mean(d.batch_votes), "votes");
  report->Add("stream.publish_ratio",
              Ratio(r.Get("stream.epochs_published"),
                    r.Get("stream.micro_batches")),
              "ratio");
  // core
  report->Add("core.flush_ms", flush_ms, "ms");
  report->Add("graph.copy_ms", copy_ms, "ms");
  report->Add("core.validate_ms", validate_ms, "ms");
  report->Add("graph.csr_build_ms", csr_ms, "ms");
  report->Add("core.flush_other_ms",
              flush_ms - split_ms - cluster_ms - merge_ms - copy_ms -
                  validate_ms - csr_ms,
              "ms");
  report->Add("core.rollback_ratio", Ratio(r.Get("online.rollbacks"), flushes),
              "ratio");
  report->Add("core.dead_letter_ratio",
              Ratio(r.Get("online.dead_lettered"),
                    static_cast<double>(d.votes_offered)),
              "ratio");
  // math / votes / cluster
  report->Add("sgp.solve_ms", solve_ms, "ms");
  report->Add("sgp.iterations_per_solve",
              Ratio(r.Get("sgp.solver.iterations"), r.Get("sgp.solver.solves")),
              "count");
  report->Add("votes.encode_ms", Median(d.encode_ms), "ms");
  report->Add("cluster.split_ms", split_ms, "ms");
  report->Add("cluster.merge_ms", merge_ms, "ms");
  report->Add("cluster.clusters_per_flush",
              Ratio(r.Get("split_merge.clusters"), flushes), "count");
  report->Add("cluster.vote_satisfied_ratio",
              Ratio(r.Get("split_merge.votes_satisfied"),
                    r.Get("split_merge.votes_verified")),
              "ratio");
  // durability
  report->Add("durability.checkpoint_ms",
              Median(tracer.DurationsUs(Call::kCheckpoint)) / 1e3, "ms");
  report->Add("durability.recover_ms", Median(d.recover_ms), "ms");
  report->Add("durability.snapshot_mb", d.snapshot_mb, "MB");
  report->Add("restart.optimizer_ms", Median(d.restart_optimizer_ms), "ms");
  report->Add("restart.engine_ms", Median(d.restart_engine_ms), "ms");
  report->Add("restart.first_query_ms", Median(d.restart_first_query_ms),
              "ms");
  report->Add("durability.wal_bytes_per_vote",
              Ratio(r.Get("durability.wal.bytes"),
                    r.Get("durability.wal.appends")),
              "B/vote");
  // User-facing tails: on a shared host these follow the neighbours' load
  // too closely to carry a bound (see README.md).
  report->Add("e2e.query_p99_us",
              BlockPercentile(t.query_us, t.query_sent_s, kTailBlock, 99.0),
              "us");
  report->Add("e2e.vote_visible_p99_ms", Summarize(t.visible_ms).tail, "ms");
  // load generator
  report->Add("load.late_ms", Summarize(d.late_ms).tail, "ms");
  report->Add("trace.overhead_ratio",
              Ratio(Median(d.query_us_traced), Median(d.query_us_untraced)),
              "ratio");
}

}  // namespace

std::string FinishReport(const Args& args, RunData* data, Oracle* oracle,
                         Tracer* tracer, bool* correct) {
  oracle->Finish();
  RunData& d = *data;
  const RegistryTotals& r = d.registry;
  const double flush_sum = r.Get("span.online.flush.seconds.sum");
  const double misses = r.Get("serving.eipd.queries");

  std::printf("properties:\n");
  std::printf("  serve hit ratio %.4f (%" PRIu64 " hits / %" PRIu64
              " queries in the measured window)\n",
              Ratio(static_cast<double>(d.serve_window.hits),
                    static_cast<double>(d.serve_window.queries)),
              d.serve_window.hits, d.serve_window.queries);
  std::printf("  dense-kernel share of the serve probe's misses %.4f "
              "(%zu misses, %zu hits)\n",
              d.dense_ratio, d.serve_miss_us.size(), d.serve_hit_us.size());
  std::printf("  micro-batches %zu, mean %.2f votes per batch; %.0f EIPD "
              "propagations in the window\n",
              d.batch_votes.size(), Mean(d.batch_votes), misses);
  std::printf("  flushes %.0f, mean %.2f ms; sgp solve share of flush "
              "%.4f; split-merge clusters per flush %.2f\n",
              r.Get("online.flushes"),
              1e3 * Ratio(flush_sum, r.Get("online.flushes")),
              Ratio(r.Get("span.sgp.solve.seconds.sum"), flush_sum),
              Ratio(r.Get("split_merge.clusters"), r.Get("online.flushes")));
  std::printf("timings (sample counts; tails are the highest percentile "
              "with >= 10 samples above it):\n");
  PrintTiming("setup", "s", Summarize(d.setup_s));
  PrintTiming("query latency", "us", Summarize(d.query_us));
  {
    std::vector<double> q = d.query_us;
    std::printf("  query tail: p90=%.4g p95=%.4g p99=%.4g us; median of "
                "1000-query block p99s %.4g us\n",
                Quantile(q, 0.90), Quantile(q, 0.95), Quantile(q, 0.99),
                BlockPercentile(d.query_us, d.query_sent_s, kTailBlock, 99.0));
  }
  d.steal.Sample();
  std::printf("  hypervisor steal during the measured load: %.1f%% of busy "
              "CPU time; %.1f%% of 100 ms ticks above %.0f%%\n",
              100.0 * d.steal.Share(d.load_start_s, d.load_end_s),
              100.0 * d.steal.DisturbedTickShare(),
              100.0 * StealMonitor::kMaxShare);
  PrintTiming("vote ack -> visible", "ms", Summarize(d.vote_visible_ms));
  PrintTiming("restart", "ms", Summarize(d.restart_ms));
  PrintTiming("generator lateness", "ms", Summarize(d.late_ms));
  std::printf("  votes applied %" PRIu64 " of %" PRIu64 " offered; %zu "
              "closed-loop micro-batches time votes_per_s\n",
              d.votes_applied, d.votes_offered, d.vote_rounds.size());
  std::printf("oracle: %" PRIu64 " rankings checked, %" PRIu64
              " mismatches, %" PRIu64 " dropped, %" PRIu64
              " unverifiable; %" PRIu64 " other checks, %" PRIu64
              " failed\n",
              oracle->checked(), oracle->mismatches(), oracle->dropped(),
              oracle->unverifiable(), d.other_attempted, d.other_failed);

  *correct = oracle->mismatches() == 0 && d.other_failed == 0 &&
             oracle->checked() > 0;
  const uint64_t attempted =
      d.queries_attempted + d.votes_offered + d.other_attempted;
  const uint64_t failed = d.queries_failed + oracle->mismatches() +
                          (d.votes_offered - d.votes_applied) +
                          d.other_failed;
  Report report;
  if (args.trace) {
    PrintTiming("traced-slice query latency", "us",
                Summarize(d.query_us_traced));
    PrintTiming("untraced-slice query latency", "us",
                Summarize(d.query_us_untraced));
    PrintTiming("stage replay: graph copy", "ms", Summarize(d.copy_ms));
    PrintTiming("stage replay: validate", "ms", Summarize(d.validate_ms));
    PrintTiming("stage replay: csr build", "ms", Summarize(d.csr_ms));
    PrintTiming("stage replay: encode", "ms", Summarize(d.encode_ms));
    PrintTiming("replay: EipdEngine::Rank", "us", Summarize(d.rank_us));
    PrintTiming("serve probe: Submit hit", "us", Summarize(d.serve_hit_us));
    PrintTiming("serve probe: Submit miss", "us", Summarize(d.serve_miss_us));
    std::printf("  %zu spans recorded\n", tracer->size());
    AddPerLayer(d, FilterTimings(d), *tracer, &report);
    const std::string dir = args.workdir + "/traces";
    const std::string path = dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (tracer->WriteJsonLines(path)) {
      std::printf("spans -> %s\n", path.c_str());
    }
  } else {
    AddEndToEnd(d, FilterTimings(d), *oracle, &report);
  }
  return report.Json(*correct, attempted, failed);
}

}  // namespace kgov::perfbench
