// Million-node scale sweep of the frontier-tracked EIPD kernel.
//
// Generates streaming scale-free graphs at |V| in {4096, 62586, 1e5, 1e6}
// (the first two match the toy and Gnutella scales of the existing
// benches) and measures per-query propagation latency through
// EipdEngine::Rank. Per-query cost follows the touched set, not |V|
// (docs/scale.md), so latency should grow with the frontier's reach
// rather than with graph size.
//
// Flags:
//   --smoke      reduced sizes/query counts for CI (see tools/ci/check.sh)
//   --json PATH  machine-readable results (committed as BENCH_scale.json)

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "graph/csr.h"
#include "graph/source.h"
#include "ppr/eipd_engine.h"
#include "ppr/query_seed.h"

namespace kgov {
namespace {

struct LatencyStats {
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

LatencyStats Summarize(std::vector<double>& samples_ms) {
  LatencyStats stats;
  if (samples_ms.empty()) return stats;
  double total = 0.0;
  for (double s : samples_ms) total += s;
  stats.mean_ms = total / static_cast<double>(samples_ms.size());
  std::sort(samples_ms.begin(), samples_ms.end());
  stats.p50_ms = samples_ms[samples_ms.size() / 2];
  stats.p99_ms = samples_ms[std::min(samples_ms.size() - 1,
                                     samples_ms.size() * 99 / 100)];
  return stats;
}

struct SizeResult {
  size_t num_nodes = 0;
  size_t num_edges = 0;
  double gen_seconds = 0.0;
  size_t queries = 0;
  LatencyStats sparse;
};

/// One propagation + rank per sample through the given engine, after one
/// untimed query: the workspace's first use allocates and zeroes its
/// O(|V|) buffers, a one-off cost per serving worker, not per query.
LatencyStats RunKernel(const ppr::EipdEngine& engine,
                       const std::vector<ppr::QuerySeed>& seeds,
                       const std::vector<graph::NodeId>& candidates) {
  ppr::PropagationWorkspace ws;
  if (!engine.Rank(seeds.front(), candidates, 10, &ws).ok()) return {};
  std::vector<double> samples_ms;
  samples_ms.reserve(seeds.size());
  for (const ppr::QuerySeed& seed : seeds) {
    Timer timer;
    StatusOr<std::vector<ppr::ScoredAnswer>> ranked =
        engine.Rank(seed, candidates, 10, &ws);
    double ms = timer.ElapsedSeconds() * 1e3;
    if (!ranked.ok()) {
      std::fprintf(stderr, "rank failed: %s\n",
                   ranked.status().ToString().c_str());
      continue;
    }
    samples_ms.push_back(ms);
  }
  return Summarize(samples_ms);
}

StatusOr<SizeResult> RunSize(size_t num_nodes, size_t queries,
                             uint64_t seed) {
  SizeResult result;
  result.num_nodes = num_nodes;
  result.queries = queries;

  graph::GeneratorSpec spec;
  spec.kind = graph::GeneratorKind::kStreamingScaleFree;
  spec.num_nodes = num_nodes;
  spec.edges_per_node = 4;
  Timer gen_timer;
  KGOV_ASSIGN_OR_RETURN(
      graph::WeightedDigraph g,
      graph::LoadGraph(graph::GraphSource::Generator(spec, seed)));
  result.gen_seconds = gen_timer.ElapsedSeconds();
  result.num_edges = g.NumEdges();

  // Workload: node-seeded queries against a fixed candidate set, the
  // serving path's shape. Workload stream is separate from the
  // generator's.
  Rng rng(seed + 1000);
  std::vector<ppr::QuerySeed> seeds;
  while (seeds.size() < queries) {
    ppr::QuerySeed q = ppr::QuerySeed::FromNode(
        g, static_cast<graph::NodeId>(rng.NextIndex(num_nodes)));
    if (!q.empty()) seeds.push_back(std::move(q));
  }
  std::vector<graph::NodeId> candidates;
  for (size_t i = 0; i < 64; ++i) {
    candidates.push_back(
        static_cast<graph::NodeId>(rng.NextIndex(num_nodes)));
  }

  graph::CsrSnapshot snapshot(g);
  result.sparse = RunKernel(ppr::EipdEngine(snapshot.View()), seeds,
                            candidates);
  return result;
}

double MaxRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is KiB on Linux.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void WriteJson(const std::string& path, const std::vector<SizeResult>& rows,
               bool smoke) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"bench_scale\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"max_rss_mb\": %.1f,\n", MaxRssMb());
  std::fprintf(f, "  \"sizes\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SizeResult& r = rows[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"num_nodes\": %zu,\n", r.num_nodes);
    std::fprintf(f, "      \"num_edges\": %zu,\n", r.num_edges);
    std::fprintf(f, "      \"gen_seconds\": %.4f,\n", r.gen_seconds);
    std::fprintf(f, "      \"queries\": %zu,\n", r.queries);
    std::fprintf(f,
                 "      \"sparse\": {\"mean_ms\": %.4f, \"p50_ms\": %.4f, "
                 "\"p99_ms\": %.4f}\n",
                 r.sparse.mean_ms, r.sparse.p50_ms, r.sparse.p99_ms);
    std::fprintf(f, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("results -> %s\n", path.c_str());
}

int Run(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  bench::Banner("Scale sweep: frontier-tracked EIPD kernel",
                "million-node serving (docs/scale.md)");

  struct SizeSpec {
    size_t num_nodes;
    size_t queries;
  };
  std::vector<SizeSpec> sweep;
  if (smoke) {
    sweep = {{4096, 40}, {100000, 15}, {1000000, 5}};
  } else {
    sweep = {{4096, 200}, {62586, 100}, {100000, 100}, {1000000, 30}};
  }

  bench::TablePrinter table(
      {"|V|", "|E|", "gen", "mean ms", "p50 ms", "p99 ms"},
      {9, 9, 7, 9, 9, 9});
  table.PrintHeader();

  std::vector<SizeResult> rows;
  for (const SizeSpec& spec : sweep) {
    StatusOr<SizeResult> r = RunSize(spec.num_nodes, spec.queries, 4242);
    if (!r.ok()) {
      std::fprintf(stderr, "size %zu failed: %s\n", spec.num_nodes,
                   r.status().ToString().c_str());
      return 1;
    }
    const SizeResult& row = *r;
    table.PrintRow({std::to_string(row.num_nodes),
                    std::to_string(row.num_edges),
                    bench::Num(row.gen_seconds, 2) + "s",
                    bench::Num(row.sparse.mean_ms, 3),
                    bench::Num(row.sparse.p50_ms, 3),
                    bench::Num(row.sparse.p99_ms, 3)});
    rows.push_back(row);
  }

  std::printf("\npeak RSS %.1f MB\n", MaxRssMb());
  if (!json_path.empty()) WriteJson(json_path, rows, smoke);
  return 0;
}

}  // namespace
}  // namespace kgov

int main(int argc, char** argv) { return kgov::Run(argc, argv); }
