// Serving-path throughput: the EIPD kernel through EipdEngine over a
// GraphView of a frozen CsrSnapshot, reusing one PropagationWorkspace.
//
// Prints queries/sec and writes BENCH_serving.json so CI can track the
// serving-path trajectory (tools/ci/check.sh runs this from the repo
// root). The graph is Taobao-size (~4k nodes), where a length-5 walk
// reaches most of the graph; large-graph scaling is bench_scale's job
// (BENCH_scale.json).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "graph/csr.h"
#include "ppr/eipd_engine.h"
#include "qa/kg_builder.h"

namespace kgov {
namespace {

struct Setup {
  qa::Corpus corpus;
  qa::KnowledgeGraph kg;
  graph::CsrSnapshot snapshot;
  std::vector<ppr::QuerySeed> seeds;
};

Setup* GlobalSetup() {
  static Setup* setup = [] {
    auto* s = new Setup();
    Rng rng(2718);
    Result<qa::Corpus> corpus =
        qa::GenerateCorpus(qa::TaobaoScaleParams(), rng);
    KGOV_CHECK(corpus.ok());
    s->corpus = std::move(corpus).value();
    Result<qa::KnowledgeGraph> kg = qa::BuildKnowledgeGraph(s->corpus);
    KGOV_CHECK(kg.ok());
    s->kg = std::move(kg).value();
    s->snapshot = graph::CsrSnapshot(s->kg.graph);
    std::vector<qa::Question> questions = qa::GenerateQuestions(
        s->corpus, 64, qa::TaobaoScaleParams(), rng);
    for (const qa::Question& q : questions) {
      s->seeds.push_back(qa::LinkQuestion(q, s->kg.num_entities));
    }
    return s;
  }();
  return setup;
}

constexpr int kRounds = 10;

/// Runs `fn(seed)` over every seed for kRounds rounds (after one untimed
/// warm-up round); returns queries/sec.
template <typename Fn>
double MeasureQps(const Setup& s, Fn&& fn) {
  for (const ppr::QuerySeed& seed : s.seeds) {
    benchmark::DoNotOptimize(fn(seed));
  }
  Timer timer;
  for (int r = 0; r < kRounds; ++r) {
    for (const ppr::QuerySeed& seed : s.seeds) {
      benchmark::DoNotOptimize(fn(seed));
    }
  }
  double seconds = timer.ElapsedSeconds();
  return static_cast<double>(kRounds * s.seeds.size()) / seconds;
}

void BM_EipdServe(benchmark::State& state) {
  Setup* s = GlobalSetup();
  ppr::EipdEngine engine(s->snapshot.View(), {.max_length = 5});
  ppr::PropagationWorkspace workspace;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Rank(
        s->seeds[i % s->seeds.size()], s->kg.answer_nodes, 20, &workspace));
    ++i;
  }
}
BENCHMARK(BM_EipdServe)->Unit(benchmark::kMillisecond);

void RunAndReport(const char* json_path) {
  bench::Banner("Serving path: EIPD kernel over a CSR snapshot",
                "kgov read path (docs/scale.md)");
  Setup* s = GlobalSetup();
  std::printf("graph: %zu nodes, %zu edges; %zu seeds x %d rounds; top-20 "
              "over %zu answers\n",
              s->kg.graph.NumNodes(), s->kg.graph.NumEdges(),
              s->seeds.size(), kRounds, s->kg.answer_nodes.size());

  ppr::EipdOptions options;
  options.max_length = 5;
  ppr::EipdEngine engine(s->snapshot.View(), options);
  ppr::PropagationWorkspace workspace;

  double qps = MeasureQps(*s, [&](const ppr::QuerySeed& seed) {
    return engine.Rank(seed, s->kg.answer_nodes, 20, &workspace);
  });

  bench::TablePrinter table({"queries/sec", "ms/query"}, {12, 10});
  table.PrintHeader();
  table.PrintRow({bench::Num(qps, 1), bench::Num(1e3 / qps, 3)});

  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"serving_path\",\n"
               "  \"nodes\": %zu,\n"
               "  \"edges\": %zu,\n"
               "  \"queries\": %zu,\n"
               "  \"top_k\": 20,\n"
               "  \"max_length\": %d,\n"
               "  \"qps\": %.2f,\n"
               "  \"ms_per_query\": %.4f\n"
               "}\n",
               s->kg.graph.NumNodes(), s->kg.graph.NumEdges(),
               static_cast<size_t>(kRounds) * s->seeds.size(),
               options.max_length, qps, 1e3 / qps);
  std::fclose(out);
  std::printf("wrote %s\n", json_path);
}

}  // namespace
}  // namespace kgov

int main(int argc, char** argv) {
  const char* json_path = "BENCH_serving.json";
  const char* telemetry_path = "BENCH_serving_telemetry.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[i + 1];
    }
    if (std::string(argv[i]) == "--telemetry-json" && i + 1 < argc) {
      telemetry_path = argv[i + 1];
    }
  }
  kgov::RunAndReport(json_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // Every engine query above fed the serving.eipd.* metrics; dump them so
  // CI can validate the snapshot shape alongside the throughput numbers.
  kgov::bench::DumpTelemetry(telemetry_path);
  return 0;
}
