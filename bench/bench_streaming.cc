// Streaming feedback pipeline benchmark: sustained vote ingestion through
// stream::StreamPipeline while serve::QueryEngine answers queries
// concurrently, plus the cache hit-rate retention of selective epoch
// invalidation vs the full-flush baseline.
//
// Phase 1 (sustained ingest): the background consumer folds micro-batches
// while a serving thread replays the query stream. Reports acknowledged
// votes/sec (Offer wall-clock, backpressure included) and the concurrent
// serving latency distribution (p50/p99 measured per query, not modeled).
//
// Phase 2 (invalidation retention): two cache-enabled engines watch the
// same epoch swaps - one invalidating selectively from the published
// changed-cluster deltas, one flushing wholesale. Identical queries,
// identical swaps; the hit rate of the post-swap passes is the honest
// value of the delta machinery. tools/ci/check.sh gates
// hit_rate_selective > hit_rate_full on this file.
//
// Phase 3 (flush-latency sweep): the same community workload at growing
// community counts (--communities N,N,...; default 24,240,2400,24000, i.e.
// ~1.3k to ~1.3M nodes), folding fixed 8-vote micro-batches through
// DrainOnce and timing each one. A flush does work in proportion to what
// it touches, so p50 should stay roughly flat in |V|; what still grows is
// the publish's copy of the neighbour array (docs/streaming.md).
//
// Writes BENCH_streaming.json + a telemetry snapshot with the stream.*
// counters populated. --smoke shrinks the workload for CI.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/online_optimizer.h"
#include "serve/query_engine.h"
#include "stream/pipeline.h"

namespace kgov {
namespace {

/// The workload models a large KG's locality at bench scale: K entity
/// communities (documents about unrelated topics), each with its own
/// answer nodes and query seeds. Queries propagate within their
/// community, so a vote's weight changes can only affect that community's
/// cached rankings - the structure selective invalidation monetizes, and
/// what a production graph has at scale (a vote about one product does
/// not touch the clusters serving every other query).
struct Workload {
  graph::WeightedDigraph graph;
  size_t num_entities = 0;
  size_t num_communities = 0;
  std::vector<graph::NodeId> answers;     // global candidate universe
  std::vector<ppr::QuerySeed> seeds;      // replayed as serving load
  std::vector<votes::Vote> votes;         // one community per vote
};

Workload MakeWorkload(size_t communities) {
  Rng rng(4242);
  const size_t kCommunities = communities;
  const size_t kEntitiesPer = 50;
  const size_t kAnswersPer = 4;
  const size_t kSeedsPer = 2;

  Workload w;
  w.num_communities = kCommunities;
  w.num_entities = kCommunities * kEntitiesPer;
  w.graph = graph::WeightedDigraph(w.num_entities +
                                   kCommunities * kAnswersPer);

  // answer_sources[c][j]: the entities linking into answer j of
  // community c (used to build guaranteed-encodable votes).
  std::vector<std::vector<std::vector<graph::NodeId>>> answer_sources(
      kCommunities);
  for (size_t c = 0; c < kCommunities; ++c) {
    const graph::NodeId base = static_cast<graph::NodeId>(c * kEntitiesPer);
    auto community_entity = [&] {
      return base + static_cast<graph::NodeId>(rng.NextIndex(kEntitiesPer));
    };
    // Entity-entity edges within the community (~3 per node).
    for (size_t i = 0; i < kEntitiesPer; ++i) {
      const graph::NodeId from = base + static_cast<graph::NodeId>(i);
      for (int k = 0; k < 3; ++k) {
        graph::NodeId to = community_entity();
        if (to == from) continue;
        (void)w.graph.AddEdge(from, to, rng.Uniform(0.1, 1.0));
      }
    }
    // Answer nodes with incoming links from community entities.
    answer_sources[c].resize(kAnswersPer);
    for (size_t j = 0; j < kAnswersPer; ++j) {
      const graph::NodeId answer = static_cast<graph::NodeId>(
          w.num_entities + c * kAnswersPer + j);
      w.answers.push_back(answer);
      for (int k = 0; k < 3; ++k) {
        graph::NodeId entity = community_entity();
        if (w.graph.AddEdge(entity, answer, rng.Uniform(0.2, 1.0)).ok()) {
          answer_sources[c][j].push_back(entity);
        }
      }
    }
    // Query seeds served against this community.
    for (size_t s = 0; s < kSeedsPer; ++s) {
      ppr::QuerySeed seed;
      seed.links.emplace_back(community_entity(), rng.Uniform(0.5, 1.0));
      seed.links.emplace_back(community_entity(), rng.Uniform(0.5, 1.0));
      seed.Normalize();
      w.seeds.push_back(std::move(seed));
    }
    // Votes: promote each answer in turn, seeded at a random community
    // entity (within propagation reach of the whole community).
    for (size_t j = 0; j < kAnswersPer; ++j) {
      if (answer_sources[c][j].empty()) continue;
      votes::Vote vote;
      vote.id = static_cast<uint32_t>(w.votes.size());
      vote.query.links.emplace_back(community_entity(), 1.0);
      for (size_t a = 0; a < kAnswersPer; ++a) {
        vote.answer_list.push_back(static_cast<graph::NodeId>(
            w.num_entities + c * kAnswersPer + a));
      }
      vote.best_answer = static_cast<graph::NodeId>(
          w.num_entities + c * kAnswersPer + j);
      w.votes.push_back(std::move(vote));
    }
  }
  w.graph.NormalizeAllOutWeights();
  return w;
}

core::OnlineOptimizerOptions StreamingOptions(const Workload& w) {
  core::OnlineOptimizerOptions options;
  options.batch_size = 1 << 20;  // the pipeline owns the flush cadence
  options.strategy = core::FlushStrategy::kMultiVote;
  options.optimizer.encoder.symbolic.eipd.max_length = 4;
  options.optimizer.encoder.symbolic.min_path_mass = 1e-8;
  options.optimizer.encoder.is_variable =
      [ne = w.num_entities](const graph::WeightedDigraph& g,
                            graph::EdgeId e) {
        return g.edges()[e].from < ne && g.edges()[e].to < ne;
      };
  options.optimizer.apply_judgment_filter = false;
  return options;
}

serve::QueryEngineOptions EngineOptions(bool selective) {
  serve::QueryEngineOptions options;
  options.eipd.max_length = 4;
  options.top_k = 10;
  options.num_threads = 2;
  options.enable_cache = true;
  options.selective_invalidation = selective;
  return options;
}

votes::Vote NumberedVote(const Workload& w, size_t i) {
  votes::Vote vote = w.votes[i % w.votes.size()];
  vote.id = static_cast<uint32_t>(1000 + i);
  return vote;
}

struct IngestResult {
  size_t votes_offered = 0;
  double votes_per_sec = 0.0;
  uint64_t micro_batches = 0;
  uint64_t epochs_published = 0;
  size_t queries_served = 0;
  double serving_p50_ms = 0.0;
  double serving_p99_ms = 0.0;
};

/// Phase 1: background consumer + one serving thread, both running until
/// every offered vote has been acknowledged.
IngestResult RunSustainedIngest(const Workload& w, bool smoke) {
  core::OnlineKgOptimizer online(w.graph, StreamingOptions(w));
  stream::StreamPipelineOptions pipeline_options;
  pipeline_options.micro_batch_size = 8;
  auto pipeline_or =
      stream::StreamPipeline::Create(&online, pipeline_options, nullptr);
  KGOV_CHECK(pipeline_or.ok());
  stream::StreamPipeline& pipeline = **pipeline_or;

  auto engine_or = serve::QueryEngine::Create(&online, &w.answers,
                                              EngineOptions(true));
  KGOV_CHECK(engine_or.ok());
  serve::QueryEngine& engine = **engine_or;

  KGOV_CHECK(pipeline.Start().ok());

  std::atomic<bool> done{false};
  std::vector<double> latencies_ms;
  std::thread server([&] {
    size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      Timer timer;
      StatusOr<serve::RankedAnswers> r =
          engine.Submit(w.seeds[i++ % w.seeds.size()]);
      KGOV_CHECK(r.ok());
      latencies_ms.push_back(timer.ElapsedSeconds() * 1e3);
    }
  });

  const size_t kVotes = smoke ? 64 : 384;
  Timer ingest_timer;
  for (size_t i = 0; i < kVotes; ++i) {
    KGOV_CHECK(pipeline.Offer(NumberedVote(w, i)).ok());
  }
  KGOV_CHECK(pipeline.Stop().ok());  // drains the final micro-batches
  const double ingest_seconds = ingest_timer.ElapsedSeconds();
  done.store(true, std::memory_order_release);
  server.join();

  IngestResult result;
  result.votes_offered = kVotes;
  result.votes_per_sec = static_cast<double>(kVotes) / ingest_seconds;
  stream::StreamPipeline::Stats stats = pipeline.GetStats();
  result.micro_batches = stats.micro_batches;
  result.epochs_published = stats.epochs_published;
  result.queries_served = latencies_ms.size();
  if (!latencies_ms.empty()) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    result.serving_p50_ms = latencies_ms[latencies_ms.size() / 2];
    result.serving_p99_ms =
        latencies_ms[latencies_ms.size() * 99 / 100];
  }
  return result;
}

struct RetentionResult {
  size_t epoch_swaps = 0;
  double hit_rate_selective = 0.0;
  double hit_rate_full = 0.0;
};

/// Phase 2: identical swaps and queries, two invalidation policies. Only
/// the post-swap serving passes count toward the hit rates.
RetentionResult RunRetention(const Workload& w, bool smoke) {
  core::OnlineKgOptimizer online(w.graph, StreamingOptions(w));
  auto pipeline_or = stream::StreamPipeline::Create(&online, {}, nullptr);
  KGOV_CHECK(pipeline_or.ok());
  stream::StreamPipeline& pipeline = **pipeline_or;

  auto selective_or = serve::QueryEngine::Create(&online, &w.answers,
                                                 EngineOptions(true));
  auto full_or = serve::QueryEngine::Create(&online, &w.answers,
                                            EngineOptions(false));
  KGOV_CHECK(selective_or.ok());
  KGOV_CHECK(full_or.ok());
  serve::QueryEngine& selective = **selective_or;
  serve::QueryEngine& full = **full_or;

  auto serve_all = [&](serve::QueryEngine& engine) {
    std::vector<StatusOr<serve::RankedAnswers>> results =
        engine.SubmitBatch(w.seeds);
    for (const auto& r : results) KGOV_CHECK(r.ok());
  };
  auto hit_lookups = [](const serve::QueryEngine& engine) {
    serve::ShardedResultCache::Stats stats = engine.CacheStats();
    return std::pair<uint64_t, uint64_t>(stats.hits,
                                         stats.hits + stats.misses);
  };

  // Warm both caches on the initial epoch.
  serve_all(selective);
  serve_all(full);

  RetentionResult result;
  result.epoch_swaps = smoke ? 4 : 8;
  const auto sel_before = hit_lookups(selective);
  const auto full_before = hit_lookups(full);
  size_t vote_index = 0;
  for (size_t swap = 0; swap < result.epoch_swaps; ++swap) {
    // One localized micro-batch per swap.
    for (int i = 0; i < 4; ++i) {
      KGOV_CHECK(pipeline.Offer(NumberedVote(w, vote_index++)).ok());
    }
    StatusOr<size_t> drained = pipeline.DrainOnce(16);
    KGOV_CHECK(drained.ok());
    serve_all(selective);
    serve_all(full);
  }
  const auto sel_after = hit_lookups(selective);
  const auto full_after = hit_lookups(full);
  result.hit_rate_selective =
      static_cast<double>(sel_after.first - sel_before.first) /
      static_cast<double>(sel_after.second - sel_before.second);
  result.hit_rate_full =
      static_cast<double>(full_after.first - full_before.first) /
      static_cast<double>(full_after.second - full_before.second);
  return result;
}

struct FlushSweepRow {
  size_t communities = 0;
  size_t nodes = 0;
  size_t edges = 0;
  size_t micro_batches = 0;
  double flush_p50_ms = 0.0;
  double flush_p99_ms = 0.0;
};

/// Phase 3: fixed-size micro-batches of votes drawn uniformly over the
/// communities, each drained and timed on its own (no background consumer,
/// no reader), so the latency is the write path alone: dirty marking,
/// scoped solve, validate, diff, publish.
FlushSweepRow RunFlushSweep(size_t communities, size_t micro_batches) {
  constexpr size_t kVotesPerBatch = 8;
  const Workload w = MakeWorkload(communities);
  core::OnlineKgOptimizer online(w.graph, StreamingOptions(w));
  auto pipeline_or = stream::StreamPipeline::Create(&online, {}, nullptr);
  KGOV_CHECK(pipeline_or.ok());
  stream::StreamPipeline& pipeline = **pipeline_or;

  Rng rng(77);
  size_t next_id = 0;
  std::vector<double> flush_ms;
  flush_ms.reserve(micro_batches);
  for (size_t b = 0; b < micro_batches; ++b) {
    for (size_t i = 0; i < kVotesPerBatch; ++i) {
      votes::Vote vote = w.votes[rng.NextIndex(w.votes.size())];
      vote.id = static_cast<uint32_t>(next_id++);
      KGOV_CHECK(pipeline.Offer(std::move(vote)).ok());
    }
    Timer timer;
    StatusOr<size_t> drained = pipeline.DrainOnce(kVotesPerBatch);
    flush_ms.push_back(timer.ElapsedSeconds() * 1e3);
    KGOV_CHECK(drained.ok() && *drained == kVotesPerBatch);
  }
  std::sort(flush_ms.begin(), flush_ms.end());
  FlushSweepRow row;
  row.communities = communities;
  row.nodes = w.graph.NumNodes();
  row.edges = w.graph.NumEdges();
  row.micro_batches = micro_batches;
  row.flush_p50_ms = flush_ms[flush_ms.size() / 2];
  row.flush_p99_ms = flush_ms[flush_ms.size() * 99 / 100];
  return row;
}

void RunAndReport(bool smoke, const std::vector<size_t>& sweep,
                  const char* json_path, const char* telemetry_path) {
  bench::Banner(
      "Streaming pipeline: sustained ingest + selective invalidation",
      "kgov streaming subsystem (docs/streaming.md)");

  Workload w = MakeWorkload(smoke ? 12 : 24);
  const unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("graph: %zu nodes, %zu edges; %zu votes, %zu query seeds; "
              "host_cores=%u%s\n",
              w.graph.NumNodes(), w.graph.NumEdges(),
              w.votes.size(), w.seeds.size(), host_cores,
              smoke ? " [smoke]" : "");

  IngestResult ingest = RunSustainedIngest(w, smoke);
  std::printf(
      "sustained ingest: %zu votes acknowledged at %.1f votes/sec "
      "(%" PRIu64 " micro-batches, %" PRIu64 " epochs)\n",
      ingest.votes_offered, ingest.votes_per_sec, ingest.micro_batches,
      ingest.epochs_published);
  std::printf(
      "concurrent serving: %zu queries, p50 %.2f ms, p99 %.2f ms\n",
      ingest.queries_served, ingest.serving_p50_ms, ingest.serving_p99_ms);

  RetentionResult retention = RunRetention(w, smoke);
  bench::TablePrinter table({"policy", "post-swap hit rate"}, {12, 18});
  table.PrintHeader();
  table.PrintRow({"selective", bench::Num(retention.hit_rate_selective, 4)});
  table.PrintRow({"full-flush", bench::Num(retention.hit_rate_full, 4)});
  std::printf(
      "retention across %zu epoch swaps: selective keeps %.1f%% of "
      "lookups hot vs %.1f%% under full flush\n",
      retention.epoch_swaps, retention.hit_rate_selective * 100.0,
      retention.hit_rate_full * 100.0);

  std::vector<FlushSweepRow> rows;
  bench::TablePrinter sweep_table(
      {"communities", "nodes", "edges", "flush p50 ms", "flush p99 ms"},
      {12, 10, 10, 14, 14});
  sweep_table.PrintHeader();
  for (size_t communities : sweep) {
    rows.push_back(RunFlushSweep(communities, smoke ? 40 : 200));
    const FlushSweepRow& row = rows.back();
    sweep_table.PrintRow({std::to_string(row.communities),
                          std::to_string(row.nodes),
                          std::to_string(row.edges),
                          bench::Num(row.flush_p50_ms, 3),
                          bench::Num(row.flush_p99_ms, 3)});
  }
  std::string sweep_json;
  for (size_t i = 0; i < rows.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"communities\": %zu, \"nodes\": %zu, "
                  "\"edges\": %zu, \"micro_batches\": %zu, "
                  "\"flush_p50_ms\": %.3f, \"flush_p99_ms\": %.3f}%s\n",
                  rows[i].communities, rows[i].nodes, rows[i].edges,
                  rows[i].micro_batches, rows[i].flush_p50_ms,
                  rows[i].flush_p99_ms, i + 1 < rows.size() ? "," : "");
    sweep_json += buf;
  }

  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"streaming\",\n"
               "  \"smoke\": %s,\n"
               "  \"host_cores\": %u,\n"
               "  \"nodes\": %zu,\n"
               "  \"edges\": %zu,\n"
               "  \"ingest\": {\n"
               "    \"votes_offered\": %zu,\n"
               "    \"votes_per_sec\": %.2f,\n"
               "    \"micro_batches\": %" PRIu64 ",\n"
               "    \"epochs_published\": %" PRIu64 ",\n"
               "    \"queries_served\": %zu,\n"
               "    \"serving_p50_ms\": %.3f,\n"
               "    \"serving_p99_ms\": %.3f\n"
               "  },\n"
               "  \"invalidation\": {\n"
               "    \"epoch_swaps\": %zu,\n"
               "    \"hit_rate_selective\": %.4f,\n"
               "    \"hit_rate_full\": %.4f,\n"
               "    \"retention_gain\": %.4f\n"
               "  },\n"
               "  \"flush_sweep\": [\n%s  ]\n"
               "}\n",
               smoke ? "true" : "false", host_cores,
               w.graph.NumNodes(), w.graph.NumEdges(),
               ingest.votes_offered, ingest.votes_per_sec,
               ingest.micro_batches, ingest.epochs_published,
               ingest.queries_served, ingest.serving_p50_ms,
               ingest.serving_p99_ms, retention.epoch_swaps,
               retention.hit_rate_selective, retention.hit_rate_full,
               retention.hit_rate_selective - retention.hit_rate_full,
               sweep_json.c_str());
  std::fclose(out);
  std::printf("wrote %s\n", json_path);

  bench::DumpTelemetry(telemetry_path);
}

}  // namespace
}  // namespace kgov

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = "BENCH_streaming.json";
  const char* telemetry_path = "BENCH_streaming_telemetry.json";
  std::vector<size_t> sweep;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--communities") == 0 && i + 1 < argc) {
      // Comma-separated community counts for the flush-latency sweep.
      for (const char* p = argv[i + 1]; *p != '\0';) {
        char* end = nullptr;
        const unsigned long long n = std::strtoull(p, &end, 10);
        if (end == p || n == 0) {
          std::fprintf(stderr, "bad --communities list: %s\n", argv[i + 1]);
          return 2;
        }
        sweep.push_back(static_cast<size_t>(n));
        p = *end == ',' ? end + 1 : end;
      }
    }
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--telemetry-json") == 0 && i + 1 < argc) {
      telemetry_path = argv[i + 1];
    }
  }
  if (sweep.empty()) {
    sweep = smoke ? std::vector<size_t>{24, 240}
                  : std::vector<size_t>{24, 240, 2400, 24000};
  }
  kgov::RunAndReport(smoke, sweep, json_path, telemetry_path);
  return 0;
}
