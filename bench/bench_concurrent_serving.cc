// Concurrent serving throughput: serve::QueryEngine over an
// OnlineKgOptimizer's pinned epoch, swept across worker-thread counts
// {1, 2, 4} with the epoch-keyed result cache off and on.
//
// Two throughput numbers per configuration:
//
//  * measured_qps - wall-clock queries/sec on this host. On a single-core
//    CI runner the thread sweep cannot show real scaling (every worker
//    shares one core), so the measured column mostly tracks scheduling
//    overhead there.
//  * ideal_qps - the single-thread busy time for the same cache setting
//    partitioned evenly across T workers (makespan = busy_total / T), the
//    same idealization OptimizeReport::cluster_seconds uses for the
//    split-merge solver. host_cores is recorded in the JSON so readers
//    can tell which column is meaningful on a given machine.
//
// The cache rows are measured in steady state (a warm-up round fills the
// cache), so cache-on vs cache-off is the honest hit-path speedup.
//
// Two serving-path phases follow the sweep:
//
//  * single_flight - a flash crowd (K threads, one cold key at a time)
//    against the coalescing engine; the propagation count must equal the
//    number of cold keys (exactly one leader per key), verified from the
//    engine's own outcome counters.
//  * shedding - clients hammer a capacity-2 admission window; shed
//    Submits must return kResourceExhausted promptly (p99 is gated in
//    tools/ci/check.sh).
//
// Writes BENCH_concurrent.json + a telemetry snapshot with the serve.*
// counters and the span.serve.query.seconds histogram populated
// (tools/ci/check.sh validates both). --smoke shrinks the stream for CI.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/online_optimizer.h"
#include "qa/kg_builder.h"
#include "serve/query_engine.h"

namespace kgov {
namespace {

struct Setup {
  qa::Corpus corpus;
  qa::KnowledgeGraph kg;
  std::vector<ppr::QuerySeed> seeds;
};

Setup MakeSetup(size_t num_questions) {
  Setup s;
  Rng rng(2718);
  Result<qa::Corpus> corpus =
      qa::GenerateCorpus(qa::TaobaoScaleParams(), rng);
  KGOV_CHECK(corpus.ok());
  s.corpus = std::move(corpus).value();
  Result<qa::KnowledgeGraph> kg = qa::BuildKnowledgeGraph(s.corpus);
  KGOV_CHECK(kg.ok());
  s.kg = std::move(kg).value();
  std::vector<qa::Question> questions = qa::GenerateQuestions(
      s.corpus, num_questions, qa::TaobaoScaleParams(), rng);
  for (const qa::Question& q : questions) {
    s.seeds.push_back(qa::LinkQuestion(q, s.kg.num_entities));
  }
  return s;
}

// Minimum timed window per sweep row. A row repeats its rounds until the
// window reaches this, so a cache-on row (a few microseconds per query)
// is timed over tens of thousands of queries, not a few milliseconds.
constexpr double kMinRowSeconds = 0.25;

struct SweepPoint {
  size_t threads = 0;
  bool cache = false;
  size_t queries = 0;
  double wall_seconds = 0.0;
  double measured_qps = 0.0;
  double ideal_qps = 0.0;
  double hit_rate = 0.0;
};

/// One configuration: build an engine, warm up one round (untimed; fills
/// the cache when enabled), then serve at least `rounds` full replays of
/// the stream, and more until kMinRowSeconds have passed, and report
/// wall-clock throughput.
SweepPoint RunConfig(const Setup& s, const core::OnlineKgOptimizer& online,
                     size_t threads, bool cache, int rounds) {
  serve::QueryEngineOptions options;
  options.eipd.max_length = 5;
  options.top_k = 20;
  options.num_threads = threads;
  options.enable_cache = cache;
  // The sweep is the baseline serving path (comparable across revisions):
  // miss collapse is measured by its own phase below, not folded into
  // these rows.
  options.enable_single_flight = false;
  auto engine_or =
      serve::QueryEngine::Create(&online, &s.kg.answer_nodes, options);
  KGOV_CHECK(engine_or.ok());
  serve::QueryEngine& engine = **engine_or;

  auto serve_round = [&]() {
    std::vector<StatusOr<serve::RankedAnswers>> results =
        engine.SubmitBatch(s.seeds);
    for (const auto& r : results) KGOV_CHECK(r.ok());
  };

  serve_round();  // warm-up (and cache fill when enabled)
  Timer timer;
  int served = 0;
  while (served < rounds || timer.ElapsedSeconds() < kMinRowSeconds) {
    serve_round();
    ++served;
  }
  SweepPoint point;
  point.threads = threads;
  point.cache = cache;
  point.wall_seconds = timer.ElapsedSeconds();
  point.queries = static_cast<size_t>(served) * s.seeds.size();
  point.measured_qps =
      static_cast<double>(point.queries) / point.wall_seconds;
  serve::ShardedResultCache::Stats stats = engine.CacheStats();
  const uint64_t lookups = stats.hits + stats.misses;
  point.hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(stats.hits) /
                         static_cast<double>(lookups);
  return point;
}

serve::QueryEngineOptions PhaseOptions() {
  serve::QueryEngineOptions options;
  options.eipd.max_length = 5;
  options.top_k = 20;
  return options;
}

struct SingleFlightReport {
  size_t flash_threads = 0;
  size_t cold_keys = 0;
  serve::QueryEngine::ServeStats stats;
  double collapsed_wall_seconds = 0.0;
  double duplicated_wall_seconds = 0.0;
};

/// Flash crowd: for each of `cold_keys` distinct seeds, `kFlash` threads
/// Submit the same seed simultaneously. With single-flight on, exactly
/// one propagation per key may run; everyone else follows the leader or
/// hits the cache the leader filled. The duplicated baseline (cache and
/// coalescing off) pays one propagation per caller.
SingleFlightReport RunSingleFlightPhase(const Setup& s,
                                        const core::OnlineKgOptimizer& online) {
  constexpr size_t kFlash = 8;
  SingleFlightReport report;
  report.flash_threads = kFlash;
  report.cold_keys = std::min<size_t>(4, s.seeds.size());

  auto flash = [&](serve::QueryEngine& engine) {
    Timer timer;
    for (size_t k = 0; k < report.cold_keys; ++k) {
      std::atomic<bool> go{false};
      std::vector<std::thread> threads;
      threads.reserve(kFlash);
      for (size_t t = 0; t < kFlash; ++t) {
        threads.emplace_back([&]() {
          while (!go.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          StatusOr<serve::RankedAnswers> r = engine.Submit(s.seeds[k]);
          KGOV_CHECK(r.ok());
        });
      }
      go.store(true, std::memory_order_release);
      for (std::thread& t : threads) t.join();
    }
    return timer.ElapsedSeconds();
  };

  serve::QueryEngineOptions options = PhaseOptions();
  options.num_threads = 4;
  options.enable_cache = true;
  options.enable_single_flight = true;
  auto collapsed_or =
      serve::QueryEngine::Create(&online, &s.kg.answer_nodes, options);
  KGOV_CHECK(collapsed_or.ok());
  report.collapsed_wall_seconds = flash(**collapsed_or);
  report.stats = (*collapsed_or)->GetServeStats();

  options.enable_cache = false;
  options.enable_single_flight = false;
  auto duplicated_or =
      serve::QueryEngine::Create(&online, &s.kg.answer_nodes, options);
  KGOV_CHECK(duplicated_or.ok());
  report.duplicated_wall_seconds = flash(**duplicated_or);
  return report;
}

struct ShedReport {
  size_t capacity = 0;
  uint64_t attempted = 0;
  uint64_t served = 0;
  uint64_t shed = 0;
  double shed_p50_seconds = 0.0;
  double shed_p99_seconds = 0.0;
};

double Percentile(std::vector<double>& sorted_in_place, double p) {
  if (sorted_in_place.empty()) return 0.0;
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  const size_t idx =
      static_cast<size_t>(p * static_cast<double>(sorted_in_place.size() - 1));
  return sorted_in_place[idx];
}

/// Saturate a tiny admission window (capacity 2, one worker) from four
/// client threads: while the worker propagates, further Submits must
/// shed with kResourceExhausted without queuing behind the work. The
/// shed-path latency percentiles are the promptness number check.sh
/// gates on.
ShedReport RunShedPhase(const Setup& s, const core::OnlineKgOptimizer& online,
                        int duration_ms) {
  serve::QueryEngineOptions options = PhaseOptions();
  options.num_threads = 1;
  options.enable_cache = false;  // every admitted query occupies the window
  options.enable_single_flight = false;
  options.admission.capacity = 2;
  auto engine_or =
      serve::QueryEngine::Create(&online, &s.kg.answer_nodes, options);
  KGOV_CHECK(engine_or.ok());
  serve::QueryEngine& engine = **engine_or;

  constexpr size_t kClients = 4;
  std::atomic<uint64_t> served{0};
  std::vector<std::vector<double>> shed_latency(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      Timer deadline;
      size_t i = c;
      while (deadline.ElapsedSeconds() * 1000.0 <
             static_cast<double>(duration_ms)) {
        Timer call;
        StatusOr<serve::RankedAnswers> r =
            engine.Submit(s.seeds[i % s.seeds.size()]);
        if (r.ok()) {
          served.fetch_add(1, std::memory_order_relaxed);
        } else {
          KGOV_CHECK(r.status().code() == StatusCode::kResourceExhausted);
          shed_latency[c].push_back(call.ElapsedSeconds());
        }
        i += kClients;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  ShedReport report;
  report.capacity = options.admission.capacity;
  report.served = served.load();
  std::vector<double> all;
  for (const std::vector<double>& per_client : shed_latency) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  report.shed = all.size();
  report.attempted = report.served + report.shed;
  report.shed_p50_seconds = Percentile(all, 0.50);
  report.shed_p99_seconds = Percentile(all, 0.99);
  return report;
}

void RunAndReport(bool smoke, const char* json_path,
                  const char* telemetry_path) {
  bench::Banner(
      "Concurrent serving: threads x cache sweep (serve::QueryEngine)",
      "kgov serving subsystem (docs/serving.md)");

  const size_t num_questions = smoke ? 16 : 64;
  const int rounds = smoke ? 2 : 8;
  Setup s = MakeSetup(num_questions);

  core::OnlineOptimizerOptions online_options;
  online_options.optimizer.apply_judgment_filter = false;
  core::OnlineKgOptimizer online(s.kg.graph, online_options);

  const unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("graph: %zu nodes, %zu edges; %zu seeds x >= %d rounds "
              "(>= %.2f s per row); "
              "top-20 over %zu answers; host_cores=%u%s\n",
              s.kg.graph.NumNodes(), s.kg.graph.NumEdges(),
              s.seeds.size(), rounds, kMinRowSeconds,
              s.kg.answer_nodes.size(),
              host_cores, smoke ? " [smoke]" : "");

  const std::vector<size_t> thread_counts = {1, 2, 4};
  std::vector<SweepPoint> sweep;
  for (bool cache : {false, true}) {
    double t1_qps = 0.0;
    for (size_t threads : thread_counts) {
      SweepPoint point = RunConfig(s, online, threads, cache, rounds);
      if (threads == 1) t1_qps = point.measured_qps;
      // Ideal work partition: the single-thread busy total for this cache
      // setting spread evenly over T workers.
      point.ideal_qps = t1_qps * static_cast<double>(threads);
      sweep.push_back(point);
    }
  }

  bench::TablePrinter table(
      {"threads", "cache", "measured q/s", "ideal q/s", "hit rate"},
      {7, 5, 12, 12, 8});
  table.PrintHeader();
  for (const SweepPoint& p : sweep) {
    table.PrintRow({std::to_string(p.threads), p.cache ? "on" : "off",
                    bench::Num(p.measured_qps, 1),
                    bench::Num(p.ideal_qps, 1),
                    bench::Num(p.hit_rate, 3)});
  }

  auto find = [&](size_t threads, bool cache) -> const SweepPoint& {
    for (const SweepPoint& p : sweep) {
      if (p.threads == threads && p.cache == cache) return p;
    }
    KGOV_CHECK(false);
    return sweep.front();
  };
  const double cache_speedup =
      find(1, true).measured_qps / find(1, false).measured_qps;
  // A single-core host cannot produce a meaningful thread-scaling verdict:
  // every worker time-slices one core, so the "scaling" ratio only measures
  // scheduler noise. Rather than publish a number readers might gate on,
  // emit "scaling": null and say so loudly.
  const bool scaling_meaningful = host_cores > 1;
  double scaling_ideal = 0.0;
  double scaling_measured = 0.0;
  if (scaling_meaningful) {
    scaling_ideal = find(4, false).ideal_qps / find(1, false).measured_qps;
    scaling_measured =
        find(4, false).measured_qps / find(1, false).measured_qps;
    std::printf("1->4 thread scaling: %.2fx ideal, %.2fx measured "
                "(host has %u cores)\n",
                scaling_ideal, scaling_measured, host_cores);
  } else {
    std::printf(
        "WARNING: host has 1 core - the thread sweep cannot measure real\n"
        "WARNING: scaling (all workers share one core). Emitting\n"
        "WARNING: \"scaling\": null; run on a multi-core host for a\n"
        "WARNING: meaningful scaling verdict.\n");
  }
  std::printf("cache-hit speedup (1 thread, steady state): %.2fx\n",
              cache_speedup);

  SingleFlightReport sf = RunSingleFlightPhase(s, online);
  std::printf(
      "single-flight: %zu threads x %zu cold keys -> %llu propagations "
      "(%llu leaders, %llu followers, %llu hits, %llu timeouts); "
      "collapsed %.1f ms vs duplicated %.1f ms\n",
      sf.flash_threads, sf.cold_keys,
      static_cast<unsigned long long>(sf.stats.misses),
      static_cast<unsigned long long>(sf.stats.leaders),
      static_cast<unsigned long long>(sf.stats.followers),
      static_cast<unsigned long long>(sf.stats.hits),
      static_cast<unsigned long long>(sf.stats.timeouts),
      sf.collapsed_wall_seconds * 1e3, sf.duplicated_wall_seconds * 1e3);

  ShedReport shed = RunShedPhase(s, online, smoke ? 200 : 1000);
  std::printf(
      "shedding: capacity %zu, %llu attempted -> %llu served, %llu shed; "
      "shed p50 %.1f us, p99 %.1f us\n",
      shed.capacity, static_cast<unsigned long long>(shed.attempted),
      static_cast<unsigned long long>(shed.served),
      static_cast<unsigned long long>(shed.shed),
      shed.shed_p50_seconds * 1e6, shed.shed_p99_seconds * 1e6);

  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"concurrent_serving\",\n"
               "  \"smoke\": %s,\n"
               "  \"host_cores\": %u,\n"
               "  \"nodes\": %zu,\n"
               "  \"edges\": %zu,\n"
               "  \"min_queries_per_config\": %zu,\n"
               "  \"min_seconds_per_config\": %.2f,\n"
               "  \"top_k\": 20,\n"
               "  \"max_length\": 5,\n"
               "  \"sweep\": [\n",
               smoke ? "true" : "false", host_cores,
               s.kg.graph.NumNodes(), s.kg.graph.NumEdges(),
               static_cast<size_t>(rounds) * s.seeds.size(), kMinRowSeconds);
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(out,
                 "    {\"threads\": %zu, \"cache\": %s, \"queries\": %zu, "
                 "\"measured_qps\": %.2f, \"ideal_qps\": %.2f, "
                 "\"hit_rate\": %.4f}%s\n",
                 p.threads, p.cache ? "true" : "false", p.queries,
                 p.measured_qps,
                 p.ideal_qps, p.hit_rate,
                 i + 1 < sweep.size() ? "," : "");
  }
  if (scaling_meaningful) {
    std::fprintf(out,
                 "  ],\n"
                 "  \"scaling\": {\"ideal_1_to_4\": %.3f, "
                 "\"measured_1_to_4\": %.3f},\n",
                 scaling_ideal, scaling_measured);
  } else {
    std::fprintf(out,
                 "  ],\n"
                 "  \"scaling\": null,\n");
  }
  std::fprintf(out,
               "  \"cache_hit_speedup\": %.3f,\n"
               "  \"single_flight\": {\"flash_threads\": %zu, "
               "\"cold_keys\": %zu, \"queries\": %llu, "
               "\"propagations\": %llu, \"leaders\": %llu, "
               "\"followers\": %llu, \"hits\": %llu, \"timeouts\": %llu, "
               "\"collapsed_wall_seconds\": %.6f, "
               "\"duplicated_wall_seconds\": %.6f},\n"
               "  \"shedding\": {\"capacity\": %zu, \"attempted\": %llu, "
               "\"served\": %llu, \"shed\": %llu, "
               "\"shed_p50_seconds\": %.8f, \"shed_p99_seconds\": %.8f}\n"
               "}\n",
               cache_speedup, sf.flash_threads, sf.cold_keys,
               static_cast<unsigned long long>(sf.stats.queries),
               static_cast<unsigned long long>(sf.stats.misses),
               static_cast<unsigned long long>(sf.stats.leaders),
               static_cast<unsigned long long>(sf.stats.followers),
               static_cast<unsigned long long>(sf.stats.hits),
               static_cast<unsigned long long>(sf.stats.timeouts),
               sf.collapsed_wall_seconds, sf.duplicated_wall_seconds,
               shed.capacity,
               static_cast<unsigned long long>(shed.attempted),
               static_cast<unsigned long long>(shed.served),
               static_cast<unsigned long long>(shed.shed),
               shed.shed_p50_seconds, shed.shed_p99_seconds);
  std::fclose(out);
  std::printf("wrote %s\n", json_path);

  bench::DumpTelemetry(telemetry_path);
}

}  // namespace
}  // namespace kgov

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = "BENCH_concurrent.json";
  const char* telemetry_path = "BENCH_concurrent_telemetry.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--telemetry-json") == 0 && i + 1 < argc) {
      telemetry_path = argv[i + 1];
    }
  }
  kgov::RunAndReport(smoke, json_path, telemetry_path);
  return 0;
}
