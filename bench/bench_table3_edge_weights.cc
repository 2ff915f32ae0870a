// Table III: samples of optimized edge weights.
//
// After the multi-vote solve, prints the largest weight changes as
// (head entity, tail entity, original, optimized, diff) rows - the
// qualitative evidence that the optimizer adjusts semantically meaningful
// relations (the paper's Juhuasuan/rule/refund and cart/commodity rows).

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"

namespace kgov {
namespace {

int Run() {
  bench::Banner("Table III: samples of optimized edge weights",
                "Table III (SVII-B)");

  Result<bench::TaobaoEnvironment> setup =
      bench::MakeTaobaoEnvironment(1.0, /*seed=*/7101);
  if (!setup.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 setup.status().ToString().c_str());
    return 1;
  }
  bench::TaobaoEnvironment& t = *setup;

  core::KgOptimizer optimizer(&t.env.deployed.graph, t.optimizer_options);
  Result<core::OptimizeReport> multi = optimizer.MultiVoteSolve(t.env.votes);
  if (!multi.ok()) {
    std::fprintf(stderr, "optimization failed\n");
    return 1;
  }

  // Net change per edge including the effect of normalization.
  struct ChangedEdge {
    graph::EdgeId edge;
    double before;
    double after;
  };
  std::vector<ChangedEdge> changed;
  const graph::WeightedDigraph& before = t.env.deployed.graph;
  const graph::WeightedDigraph after =
      core::OptimizedGraph(t.env.deployed.graph, *multi);
  for (graph::EdgeId e = 0; e < before.NumEdges(); ++e) {
    // Only entity-entity edges are interpretable relations.
    if (before.edge(e).to >= t.env.deployed.num_entities) continue;
    double b = before.Weight(e);
    double a = after.Weight(e);
    if (std::fabs(a - b) > 1e-6) {
      changed.push_back(ChangedEdge{e, b, a});
    }
  }
  std::sort(changed.begin(), changed.end(),
            [](const ChangedEdge& x, const ChangedEdge& y) {
              return std::fabs(x.after - x.before) >
                     std::fabs(y.after - y.before);
            });

  std::printf("%zu entity-entity edges changed; top 12 by |diff|:\n\n",
              changed.size());
  bench::TablePrinter table(
      {"Head Entity", "Tail Entity", "Original", "Optimized", "Diff"},
      {22, 22, 9, 9, 9});
  table.PrintHeader();
  for (size_t i = 0; i < std::min<size_t>(12, changed.size()); ++i) {
    const ChangedEdge& c = changed[i];
    const graph::Edge& edge = before.edge(c.edge);
    table.PrintRow({before.NodeLabel(edge.from), before.NodeLabel(edge.to),
                    bench::Num(c.before, 3), bench::Num(c.after, 3),
                    bench::Num(c.after - c.before, 3)});
  }

  std::printf(
      "\nPaper Table III shows the analogous rows for the real Taobao "
      "graph,\ne.g. (Juhuasuan, rule): 0.1 -> 0.08, (Juhuasuan, refund): "
      "0.1 -> 0.13.\nShape to check: a mix of raised and lowered weights "
      "concentrated on\nrelations touched by the votes.\n");
  return 0;
}

}  // namespace
}  // namespace kgov

int main() { return kgov::Run(); }
