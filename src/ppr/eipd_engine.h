// The unified extended-inverse-P-distance engine (paper SIV-A, Eq. 7-9).
//
//   Phi(vq, va) = sum over walks z : vq ~> va, |z| <= L of P[z]*c*(1-c)^|z|
//
// One kernel, internal::PropagatePhi, evaluates it: a level-synchronous
// push along the out-edges that tracks the frontier, so the per-query cost
// is O(visited nodes + traversed edges) rather than O(n). Frontier nodes
// whose mass has decayed below EipdOptions::sparse_threshold are absorbed
// but not expanded; the resulting error is one-sided and bounded (see
// docs/scale.md). With sparse_threshold == 0 the kernel is bitwise
// identical to the plain level-synchronous loop (tests/eipd_reference.h).
//
// PropagationWorkspace keeps the per-query O(n) scratch (`phi`, `mass`,
// `next` plus the visited frontiers) alive across queries so steady-state
// serving does no per-call allocation, and resets only the entries the
// previous query visited. Pass one explicitly to reuse it across engines,
// or pass nullptr to use a per-thread workspace.

#ifndef KGOV_PPR_EIPD_ENGINE_H_
#define KGOV_PPR_EIPD_ENGINE_H_

#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/logging.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "ppr/query_seed.h"
#include "ppr/ranking.h"

namespace kgov::ppr {

struct EipdOptions {
  /// Maximum walk length L (number of edges, including the query's first
  /// hop). Paper default: 5.
  int max_length = 5;
  /// Restart probability c. Paper default: ~0.15.
  double restart = 0.15;
  /// A frontier node whose remaining walk mass is below this is absorbed
  /// into phi but not expanded further. Every pruned score is an
  /// underestimate of the exact walk-sum by at most
  /// sparse_threshold * (1 - restart) per pruned (node, level) - see
  /// docs/scale.md for the ranking-perturbation bound. 0 disables pruning.
  double sparse_threshold = 1e-12;

  /// OK iff the options describe a usable propagation: max_length >= 1,
  /// restart in (0, 1), and sparse_threshold finite and >= 0. Consumers
  /// (EipdEngine, QaSystem, serve::QueryEngine) call this at construction;
  /// the message names the offending field.
  Status Validate() const;
};

/// Reusable per-query scratch buffers. Reset(n) readies them for a query
/// on an n-node graph; capacity is retained, so repeated queries on graphs
/// of stable size allocate nothing. Not thread-safe: use one workspace per
/// thread (the engines default to a thread_local one).
struct PropagationWorkspace {
  std::vector<double> phi;
  std::vector<double> mass;
  std::vector<double> next;
  /// Every frontier of the current query, level after level, each in
  /// discovery order (a node reached at several levels appears once per
  /// level). The kernel walks each level as a slice of it, and every
  /// possibly-nonzero phi/mass/next entry belongs to a node listed here.
  std::vector<graph::NodeId> visited;

  /// Zeroes the entries the previous query visited. Zeroes all n instead
  /// after a size change (first use, or a graph of another size), or when
  /// the previous query visited more than n/16 entries: each scattered
  /// store dirties a whole cache line, and past that point three
  /// sequential fills cost less (measured on the 4k-node help-desk graph,
  /// where a length-5 walk floods most nodes).
  void Reset(size_t n) {
    if (phi.size() != n || visited.size() > n / 16) {
      phi.assign(n, 0.0);
      mass.assign(n, 0.0);
      next.assign(n, 0.0);
    } else {
      for (graph::NodeId v : visited) {
        phi[v] = 0.0;
        mass[v] = 0.0;
        next[v] = 0.0;
      }
    }
    visited.clear();
  }
};

/// The per-thread default workspace used when callers pass nullptr.
PropagationWorkspace& ThreadLocalWorkspace();

namespace internal {

/// Adjacency adapter over a GraphView (contiguous CSR ranges).
struct ViewAdjacency {
  graph::GraphView view;

  size_t NumNodes() const { return view.NumNodes(); }
  bool IsValidNode(graph::NodeId v) const { return view.IsValidNode(v); }

  template <typename Fn>
  void ForEachOut(graph::NodeId u, Fn&& fn) const {
    const graph::GraphView::Neighbor* b = view.begin(u);
    const graph::GraphView::Neighbor* e = view.end(u);
    const graph::EdgeId* ids = view.edge_ids(u);
    for (const graph::GraphView::Neighbor* it = b; it != e; ++it) {
      fn(it->to, it->weight,
         ids == nullptr ? graph::kInvalidEdge : ids[it - b]);
    }
  }
};

/// THE propagation body: level-synchronous mass propagation (a truncated
/// power iteration over the walk length), yielding the scores of *all*
/// nodes in one pass - the property behind the paper's Table VI efficiency
/// result. Walks longer than L are dropped (SIV-A; L = 5 in the paper's
/// experiments, justified by Fig. 7). Weights present in `overrides`
/// (keyed by EdgeId; may be null) replace the adjacency's weights. A
/// frontier node whose remaining mass is below options.sparse_threshold
/// is absorbed into phi but not expanded (its downstream walks are
/// dropped). Results land in ws->phi. Returns the total number of pruned
/// (node, level) pairs.
template <typename Adjacency>
size_t PropagatePhi(const Adjacency& adj, const QuerySeed& seed,
                    const EipdOptions& options,
                    const std::unordered_map<graph::EdgeId, double>* overrides,
                    PropagationWorkspace* ws) {
  ws->Reset(adj.NumNodes());
  std::vector<graph::NodeId>& visited = ws->visited;
  // Raw pointers, so the compiler need not reload the vectors' data
  // through `visited.push_back` in the hot loop. Which of the two mass
  // buffers ends up in ws->mass does not matter: Reset zeroes both at the
  // visited entries.
  double* phi = ws->phi.data();
  double* mass = ws->mass.data();
  double* next = ws->next.data();
  // Level 1: the query's first hop.
  for (const auto& [node, weight] : seed.links) {
    KGOV_DCHECK(adj.IsValidNode(node));
    if (weight <= 0.0) continue;
    if (mass[node] == 0.0) visited.push_back(node);
    mass[node] += weight;
  }
  const double c = options.restart;
  const double threshold = options.sparse_threshold;
  double decay = c * (1.0 - c);  // c*(1-c)^len for len = 1
  size_t pruned = 0;
  size_t begin = 0;  // this level's frontier is visited[begin, end)
  for (int len = 1; len <= options.max_length; ++len) {
    const size_t end = visited.size();
    for (size_t i = begin; i < end; ++i) {
      const graph::NodeId v = visited[i];
      phi[v] += mass[v] * decay;
    }
    if (len == options.max_length) break;
    for (size_t i = begin; i < end; ++i) {
      // By index: the push_back below may reallocate `visited`.
      const graph::NodeId u = visited[i];
      const double m = mass[u];
      mass[u] = 0.0;
      if (m < threshold) {
        ++pruned;
        continue;
      }
      adj.ForEachOut(u, [&](graph::NodeId to, double w, graph::EdgeId e) {
        if (overrides != nullptr) {
          auto it = overrides->find(e);
          if (it != overrides->end()) w = it->second;
        }
        if (w <= 0.0) return;
        if (next[to] == 0.0) visited.push_back(to);
        next[to] += m * w;
      });
    }
    // Every frontier mass was zeroed above, so the old mass buffer is
    // all-zero and becomes next for the following level.
    std::swap(mass, next);
    begin = end;
    decay *= 1.0 - c;
  }
  return pruned;
}

}  // namespace internal

/// THE documented EIPD evaluator: numeric EIPD evaluation over a
/// GraphView. The view's backing storage (e.g. a graph::CsrSnapshot or
/// graph::InducedSubview) must outlive the engine. Thread-compatible:
/// concurrent calls on one instance are safe as long as each thread uses
/// its own workspace (the default).
///
/// All entry points (Propagate, Scores, Rank, *WithOverrides) return
/// StatusOr<T> and reject malformed seeds/candidates with
/// InvalidArgument instead of asserting; there is no unchecked API. Code
/// that held a raw phi reference should use the checked Propagate() and
/// keep the returned vector.
class EipdEngine {
 public:
  explicit EipdEngine(graph::GraphView view, EipdOptions options = {});

  const EipdOptions& options() const { return options_; }
  const graph::GraphView& view() const { return view_; }

  /// OK iff every seed link names a valid node of the view with a finite,
  /// non-negative weight. The error message names the offending link.
  Status ValidateSeed(const QuerySeed& seed) const;

  /// One propagation pass; returns Phi(seed, v) for every node v of the
  /// view. Pass a workspace to reuse scratch across calls (the returned
  /// vector is an independent copy either way).
  StatusOr<std::vector<double>> Propagate(
      const QuerySeed& seed, PropagationWorkspace* ws = nullptr) const;

  /// Propagate with edge weights in `overrides` replacing the view's
  /// weights (judgment filter's extreme condition, per-cluster solution
  /// checks). The view must carry edge ids when it has any edges.
  StatusOr<std::vector<double>> PropagateWithOverrides(
      const QuerySeed& seed,
      const std::unordered_map<graph::EdgeId, double>& overrides,
      PropagationWorkspace* ws = nullptr) const;

  /// Phi(seed, a) for every a in `answers`, in one propagation pass.
  StatusOr<std::vector<double>> Scores(
      const QuerySeed& seed, const std::vector<graph::NodeId>& answers,
      PropagationWorkspace* ws = nullptr) const;

  /// Scores under weight overrides.
  StatusOr<std::vector<double>> ScoresWithOverrides(
      const QuerySeed& seed, const std::vector<graph::NodeId>& answers,
      const std::unordered_map<graph::EdgeId, double>& overrides,
      PropagationWorkspace* ws = nullptr) const;

  /// Top-k candidates sorted by descending score, ties by ascending node
  /// id (rankings are deterministic).
  StatusOr<std::vector<ScoredAnswer>> Rank(
      const QuerySeed& seed, const std::vector<graph::NodeId>& candidates,
      size_t k, PropagationWorkspace* ws = nullptr) const;

  /// Rank under weight overrides.
  StatusOr<std::vector<ScoredAnswer>> RankWithOverrides(
      const QuerySeed& seed, const std::vector<graph::NodeId>& candidates,
      size_t k, const std::unordered_map<graph::EdgeId, double>& overrides,
      PropagationWorkspace* ws = nullptr) const;

 private:
  /// The one kernel invocation every entry point funnels through:
  /// resolves the workspace, runs internal::PropagatePhi, records
  /// telemetry, and returns the workspace's phi vector.
  const std::vector<double>& PropagateInto(
      const QuerySeed& seed,
      const std::unordered_map<graph::EdgeId, double>* overrides,
      PropagationWorkspace* ws) const;

  graph::GraphView view_;
  EipdOptions options_;
};

}  // namespace kgov::ppr

#endif  // KGOV_PPR_EIPD_ENGINE_H_
