// Quickstart: the paper's Fig. 1 scenario end to end.
//
// Builds a small knowledge graph for an email-client help desk, asks a
// question ("email stuck in outbox"), shows the ranked answers, casts a
// negative vote for the runner-up, optimizes the graph, and shows that the
// voted answer now ranks first.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/kg_optimizer.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "ppr/eipd_engine.h"
#include "ppr/query_seed.h"
#include "votes/vote.h"

using namespace kgov;

int main() {
  // ---- 1. Build the knowledge graph (entities + answer documents) ----
  // Entities: Stuck, Outbox, Email, SendMessage, Outlook.
  graph::WeightedDigraph g;
  graph::NodeId stuck = g.AddNode();
  graph::NodeId outbox = g.AddNode();
  graph::NodeId email = g.AddNode();
  graph::NodeId send = g.AddNode();
  graph::NodeId outlook = g.AddNode();
  g.SetNodeLabel(stuck, "Stuck");
  g.SetNodeLabel(outbox, "Outbox");
  g.SetNodeLabel(email, "Email");
  g.SetNodeLabel(send, "SendMessage");
  g.SetNodeLabel(outlook, "Outlook");

  // Entity relations (weights = co-occurrence conditionals, as in Fig. 1).
  (void)g.AddEdge(stuck, outbox, 0.7);
  (void)g.AddEdge(stuck, email, 0.3);
  (void)g.AddEdge(outbox, email, 0.3);
  (void)g.AddEdge(outbox, send, 0.5);
  (void)g.AddEdge(email, outbox, 0.4);
  (void)g.AddEdge(email, send, 0.6);
  (void)g.AddEdge(send, outlook, 0.3);
  (void)g.AddEdge(send, email, 0.5);

  // Answer documents, linked from the entities they cover.
  graph::NodeId a1 = g.AddNode();  // "Clear a stuck outbox"
  graph::NodeId a2 = g.AddNode();  // "Why mail stays in the outbox"
  graph::NodeId a3 = g.AddNode();  // "Configure Outlook send/receive"
  g.SetNodeLabel(a1, "doc:clear-stuck-outbox");
  g.SetNodeLabel(a2, "doc:mail-stays-in-outbox");
  g.SetNodeLabel(a3, "doc:outlook-send-receive");
  (void)g.AddEdge(outbox, a1, 0.5);
  (void)g.AddEdge(stuck, a1, 0.2);
  (void)g.AddEdge(email, a2, 0.35);
  (void)g.AddEdge(outbox, a2, 0.3);
  (void)g.AddEdge(outlook, a3, 1.0);
  g.NormalizeAllOutWeights();

  std::vector<graph::NodeId> answers{a1, a2, a3};
  size_t num_entities = 5;

  // ---- 2. Ask a question ----
  // "My email is stuck in the outbox" -> mentions Stuck, Outbox, Email
  // with equal weight (the 0.33 links of Fig. 1).
  ppr::QuerySeed question = ppr::QuerySeed::UniformOver({stuck, outbox, email});

  ppr::EipdOptions eipd;
  eipd.max_length = 5;
  graph::CsrSnapshot snapshot(g);
  ppr::EipdEngine evaluator(snapshot.View(), eipd);
  StatusOr<std::vector<ppr::ScoredAnswer>> ranked_or =
      evaluator.Rank(question, answers, 3);
  if (!ranked_or.ok()) {
    std::fprintf(stderr, "ranking failed: %s\n",
                 ranked_or.status().ToString().c_str());
    return 1;
  }
  std::vector<ppr::ScoredAnswer> ranked = std::move(ranked_or).value();

  std::printf("Ranked answers before optimization:\n");
  for (size_t i = 0; i < ranked.size(); ++i) {
    std::printf("  %zu. %-28s score %.5f\n", i + 1,
                g.NodeLabel(ranked[i].node).c_str(), ranked[i].score);
  }

  // ---- 3. The user votes: the SECOND answer was actually the best ----
  votes::Vote vote;
  vote.id = 0;
  vote.query = question;
  for (const ppr::ScoredAnswer& sa : ranked) {
    vote.answer_list.push_back(sa.node);
  }
  vote.best_answer = ranked[1].node;
  std::printf("\nUser vote: best answer is '%s' (currently rank 2)\n",
              g.NodeLabel(vote.best_answer).c_str());

  // ---- 4. Optimize the graph with the vote ----
  core::OptimizerOptions options;
  options.encoder.symbolic.eipd = eipd;
  // The judgment filter (SV) is conservative on this tiny graph - the
  // extreme condition cannot touch the fixed answer links - but the vote
  // is in fact satisfiable through the entity relations, so skip it here.
  options.apply_judgment_filter = false;
  // Only entity-entity relations are adjustable; answer links are data.
  options.encoder.is_variable = [num_entities](
                                    const graph::WeightedDigraph& gr,
                                    graph::EdgeId e) {
    return gr.edge(e).from < num_entities && gr.edge(e).to < num_entities;
  };
  core::KgOptimizer optimizer(&g, options);
  Result<core::OptimizeReport> report = optimizer.MultiVoteSolve({vote});
  if (!report.ok()) {
    std::fprintf(stderr, "optimization failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  // ---- 5. Ask again on the optimized graph ----
  const graph::WeightedDigraph optimized = core::OptimizedGraph(g, *report);
  graph::CsrSnapshot optimized_snapshot(optimized);
  ppr::EipdEngine optimized_evaluator(optimized_snapshot.View(), eipd);
  std::vector<ppr::ScoredAnswer> reranked =
      optimized_evaluator.Rank(question, answers, 3).value_or({});
  std::printf("\nRanked answers after optimization:\n");
  for (size_t i = 0; i < reranked.size(); ++i) {
    std::printf("  %zu. %-28s score %.5f\n", i + 1,
                optimized.NodeLabel(reranked[i].node).c_str(),
                reranked[i].score);
  }

  std::printf("\nChanged relations:\n");
  for (const auto& [edge_id, delta] : report->weight_changes) {
    const graph::Edge& e = g.edge(edge_id);
    std::printf("  %-12s -> %-12s  %.3f -> %.3f\n",
                g.NodeLabel(e.from).c_str(), g.NodeLabel(e.to).c_str(),
                g.Weight(edge_id), optimized.Weight(edge_id));
  }

  bool success = !reranked.empty() && reranked[0].node == vote.best_answer;
  std::printf("\n%s\n", success
                            ? "SUCCESS: the voted answer now ranks first."
                            : "NOTE: the voted answer did not reach rank 1.");
  return success ? 0 : 1;
}
