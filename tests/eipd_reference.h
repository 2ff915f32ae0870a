// Test-only reference for the EIPD walk-sum (paper SIV-A, Eq. 7-9).
//
// The plain level-synchronous loop: fresh O(n) buffers per query, no
// lazy reset, no pruning. It pushes mass in frontier-discovery
// order, exactly as ppr::internal::PropagatePhi does, so with
// sparse_threshold == 0 every floating-point operation happens in the same
// sequence and the production kernel must match it bitwise (memcmp).
// EipdOptions::sparse_threshold is ignored here.

#ifndef KGOV_TESTS_EIPD_REFERENCE_H_
#define KGOV_TESTS_EIPD_REFERENCE_H_

#include <unordered_map>
#include <vector>

#include "graph/graph_view.h"
#include "ppr/eipd_engine.h"
#include "ppr/query_seed.h"

namespace kgov::ppr {

/// Phi(seed, v) for every node v of `view`; weights in `overrides`
/// (keyed by EdgeId; may be null) replace the view's weights.
inline std::vector<double> ReferencePhi(
    graph::GraphView view, const QuerySeed& seed, const EipdOptions& options,
    const std::unordered_map<graph::EdgeId, double>* overrides = nullptr) {
  const size_t n = view.NumNodes();
  std::vector<double> phi(n, 0.0);
  std::vector<double> mass(n, 0.0);
  std::vector<double> next(n, 0.0);
  std::vector<graph::NodeId> frontier;
  std::vector<graph::NodeId> next_frontier;
  for (const auto& [node, weight] : seed.links) {
    if (weight <= 0.0) continue;
    if (mass[node] == 0.0) frontier.push_back(node);
    mass[node] += weight;
  }
  const double c = options.restart;
  double decay = c * (1.0 - c);
  for (int len = 1; len <= options.max_length; ++len) {
    for (graph::NodeId v : frontier) phi[v] += mass[v] * decay;
    if (len == options.max_length) break;
    next_frontier.clear();
    for (graph::NodeId u : frontier) {
      const double m = mass[u];
      mass[u] = 0.0;
      const graph::EdgeId* ids = view.edge_ids(u);
      for (const auto* it = view.begin(u); it != view.end(u); ++it) {
        double w = it->weight;
        if (overrides != nullptr) {
          auto o = overrides->find(ids[it - view.begin(u)]);
          if (o != overrides->end()) w = o->second;
        }
        if (w <= 0.0) continue;
        if (next[it->to] == 0.0) next_frontier.push_back(it->to);
        next[it->to] += m * w;
      }
    }
    mass.swap(next);
    frontier.swap(next_frontier);
    decay *= 1.0 - c;
  }
  return phi;
}

}  // namespace kgov::ppr

#endif  // KGOV_TESTS_EIPD_REFERENCE_H_
