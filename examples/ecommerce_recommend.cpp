// E-commerce recommendation with implicit votes (the paper's Example 1).
//
// A co-purchase knowledge graph recommends related products. When
// customers consistently buy a product that is NOT ranked first in the
// recommendation list, each such purchase is an implicit negative vote;
// the split-and-merge optimizer folds a batch of them into the graph.
//
// Run: ./build/examples/ecommerce_recommend

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/kg_optimizer.h"
#include "core/scoring.h"
#include "graph/csr.h"
#include "ppr/eipd_engine.h"

using namespace kgov;

int main() {
  Rng rng(77);

  // ---- Co-purchase graph: categories -> products ----
  // Category nodes model browsing context; product nodes are answers.
  const std::vector<std::string> category_names{
      "laptops", "accessories", "audio", "cables", "bags"};
  const std::vector<std::string> product_names{
      "laptop-pro",   "usb-c-hub",  "noise-cancelling-headset",
      "hdmi-cable",   "laptop-bag", "wireless-mouse",
      "mechanical-kb"};

  graph::WeightedDigraph g;
  std::vector<graph::NodeId> categories;
  for (const std::string& name : category_names) {
    graph::NodeId node = g.AddNode();
    g.SetNodeLabel(node, name);
    categories.push_back(node);
  }
  size_t num_context_nodes = g.NumNodes();
  std::vector<graph::NodeId> products;
  for (const std::string& name : product_names) {
    graph::NodeId node = g.AddNode();
    g.SetNodeLabel(node, name);
    products.push_back(node);
  }

  // Category-category affinity (browsing transitions).
  auto edge = [&](graph::NodeId a, graph::NodeId b, double w) {
    (void)g.AddEdge(a, b, w);
  };
  edge(categories[0], categories[1], 0.5);  // laptops -> accessories
  edge(categories[0], categories[4], 0.2);  // laptops -> bags
  edge(categories[1], categories[3], 0.4);  // accessories -> cables
  edge(categories[1], categories[2], 0.3);  // accessories -> audio
  edge(categories[2], categories[1], 0.3);
  edge(categories[4], categories[0], 0.4);
  edge(categories[3], categories[1], 0.5);

  // Category -> product purchase propensities (initially skewed toward
  // the wrong products - stale statistics).
  edge(categories[0], products[0], 0.6);  // laptops -> laptop-pro
  edge(categories[1], products[1], 0.5);  // accessories -> usb-c-hub
  edge(categories[1], products[5], 0.3);  // accessories -> wireless-mouse
  edge(categories[1], products[6], 0.1);  // accessories -> mechanical-kb
  edge(categories[2], products[2], 0.7);  // audio -> headset
  edge(categories[3], products[3], 0.8);  // cables -> hdmi
  edge(categories[4], products[4], 0.7);  // bags -> laptop-bag
  g.NormalizeAllOutWeights();

  // ---- Serve recommendations for the "laptops+accessories" context ----
  ppr::QuerySeed context =
      ppr::QuerySeed::UniformOver({categories[0], categories[1]});
  ppr::EipdOptions eipd;
  eipd.max_length = 5;
  graph::CsrSnapshot snapshot(g);
  ppr::EipdEngine evaluator(snapshot.View(), eipd);
  std::vector<ppr::ScoredAnswer> shown =
      evaluator.Rank(context, products, products.size()).value_or({});

  std::printf("Recommendations for laptop shoppers:\n");
  for (size_t i = 0; i < shown.size(); ++i) {
    std::printf("  %zu. %-26s %.5f\n", i + 1,
                g.NodeLabel(shown[i].node).c_str(), shown[i].score);
  }

  // ---- Implicit votes: customers keep buying the mechanical keyboard ----
  // Every purchase of a non-top recommendation is one negative vote.
  std::vector<votes::Vote> implicit_votes;
  for (uint32_t i = 0; i < 8; ++i) {
    votes::Vote vote;
    vote.id = i;
    vote.query = context;
    for (const ppr::ScoredAnswer& sa : shown) {
      vote.answer_list.push_back(sa.node);
    }
    // 6 of 8 buyers picked the keyboard, 2 confirmed the top item.
    vote.best_answer = i < 6 ? products[6] : shown.front().node;
    implicit_votes.push_back(std::move(vote));
  }

  // ---- Optimize with split-and-merge ----
  core::OptimizerOptions options;
  options.encoder.symbolic.eipd = eipd;
  options.encoder.is_variable = [num_context_nodes](
                                    const graph::WeightedDigraph& gr,
                                    graph::EdgeId e) {
    // Both affinity and propensity edges are tunable; product nodes have
    // no out-edges.
    return gr.edge(e).from < num_context_nodes;
  };
  core::KgOptimizer optimizer(&g, options);
  Result<core::OptimizeReport> report =
      optimizer.SplitMergeSolve(implicit_votes);
  if (!report.ok()) {
    std::fprintf(stderr, "optimization failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  const graph::WeightedDigraph optimized_graph =
      core::OptimizedGraph(g, *report);
  graph::CsrSnapshot optimized_snapshot(optimized_graph);
  ppr::EipdEngine optimized(optimized_snapshot.View(), eipd);
  std::vector<ppr::ScoredAnswer> reranked =
      optimized.Rank(context, products, products.size()).value_or({});
  std::printf("\nAfter %zu implicit votes (%zu clusters):\n",
              implicit_votes.size(), report->num_clusters);
  for (size_t i = 0; i < reranked.size(); ++i) {
    std::printf("  %zu. %-26s %.5f\n", i + 1,
                optimized_graph.NodeLabel(reranked[i].node).c_str(),
                reranked[i].score);
  }

  core::OmegaResult omega =
      core::EvaluateOmega(optimized_graph, implicit_votes, eipd);
  std::printf("\nOmega_avg = %.2f; '%s' moved from rank %d to rank %d.\n",
              omega.average, product_names[6].c_str(),
              votes::RankOf(implicit_votes[0].answer_list, products[6]),
              [&] {
                for (size_t i = 0; i < reranked.size(); ++i) {
                  if (reranked[i].node == products[6]) {
                    return static_cast<int>(i) + 1;
                  }
                }
                return 0;
              }());
  return 0;
}
