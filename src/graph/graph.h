// Weighted directed graph: the knowledge-graph substrate (paper SIII-A).
//
// Nodes are entities (plus, in the augmented graph used for Q&A, answer
// nodes); a directed edge (vi, vj) carries the weight w(vi, vj), the
// conditional-probability-style semantic relevance of vj given vi. Queries
// are *not* materialized as nodes: they are represented as seed
// distributions over entity nodes (see kgov::ppr::QuerySeed), which keeps
// the graph immutable across concurrent queries.

#ifndef KGOV_GRAPH_GRAPH_H_
#define KGOV_GRAPH_GRAPH_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace kgov::graph {

using NodeId = uint32_t;
using EdgeId = uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();

/// A directed weighted edge.
struct Edge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  double weight = 0.0;
};

/// Entry in a node's out-adjacency list.
struct OutEdge {
  NodeId to = kInvalidNode;
  EdgeId edge = kInvalidEdge;
};

/// One entry of a weight-only update: edge `edge` takes weight `weight`.
struct EdgeWeight {
  EdgeId edge = kInvalidEdge;
  double weight = 0.0;
};

/// A weight-only graph update: entries sorted by ascending edge id, each
/// edge at most once. The optimizer returns one (core::OptimizeReport);
/// WeightedDigraph::ApplyWeightUpdate and CsrSnapshot::WithUpdate apply it
/// without touching the rest of the graph.
using WeightUpdate = std::vector<EdgeWeight>;

/// Mutable weighted digraph with stable node and edge ids. Parallel edges
/// are rejected; self-loops are allowed but unusual in knowledge graphs.
///
/// Weight mutation (SetWeight) is the core operation of the optimizer; it
/// is O(1) and does not invalidate adjacency.
class WeightedDigraph {
 public:
  WeightedDigraph() = default;

  /// Pre-creates `n` nodes (ids 0..n-1).
  explicit WeightedDigraph(size_t n) : out_edges_(n) {}

  WeightedDigraph(const WeightedDigraph&) = default;
  WeightedDigraph& operator=(const WeightedDigraph&) = default;
  WeightedDigraph(WeightedDigraph&&) noexcept = default;
  WeightedDigraph& operator=(WeightedDigraph&&) noexcept = default;

  /// Adds an isolated node and returns its id.
  NodeId AddNode();

  /// Adds `count` nodes; returns the id of the first.
  NodeId AddNodes(size_t count);

  /// Pre-allocates for `num_edges` edges so bulk construction (the
  /// streaming generators, snapshot loads) does not pay vector regrowth.
  void ReserveEdges(size_t num_edges) { edges_.reserve(num_edges); }

  size_t NumNodes() const { return out_edges_.size(); }
  size_t NumEdges() const { return edges_.size(); }
  bool IsValidNode(NodeId node) const { return node < out_edges_.size(); }

  /// Adds edge (from, to) with `weight`. Fails on invalid endpoints,
  /// negative weight, or an existing (from, to) edge.
  Result<EdgeId> AddEdge(NodeId from, NodeId to, double weight);

  /// Id of edge (from, to), if present. O(out-degree(from)).
  std::optional<EdgeId> FindEdge(NodeId from, NodeId to) const;

  const Edge& edge(EdgeId id) const { return edges_[id]; }
  double Weight(EdgeId id) const { return edges_[id].weight; }

  /// Overwrites the weight of `id`. Negative weights are clamped to 0.
  void SetWeight(EdgeId id, double weight);

  /// Writes every weight of `update` verbatim (no clamping), so the graph
  /// holds exactly the bits the update carries. O(|update|).
  void ApplyWeightUpdate(const WeightUpdate& update);

  const std::vector<OutEdge>& OutEdges(NodeId node) const {
    return out_edges_[node];
  }
  size_t OutDegree(NodeId node) const { return out_edges_[node].size(); }

  /// Sum of outgoing weights of `node`.
  double OutWeightSum(NodeId node) const;

  /// Scales the outgoing weights of `node` so they sum to 1 (no-op when the
  /// node has no outgoing weight).
  void NormalizeOutWeights(NodeId node);

  /// Normalizes every node (paper Alg. 1 NormalizeEdges).
  void NormalizeAllOutWeights();

  /// True when every node's out-weights sum to <= 1 + tol (the
  /// sub-stochasticity required for the random-walk series to converge).
  bool IsSubStochastic(double tol = 1e-9) const;

  /// Average out-degree |E| / |V| (0 for the empty graph).
  double AverageDegree() const;

  /// All edges, indexed by EdgeId.
  const std::vector<Edge>& edges() const { return edges_; }

  /// Optional human-readable node labels (entity names). Unset labels
  /// return "".
  void SetNodeLabel(NodeId node, std::string label);
  const std::string& NodeLabel(NodeId node) const;

 private:
  std::vector<std::vector<OutEdge>> out_edges_;
  std::vector<Edge> edges_;
  std::vector<std::string> labels_;  // lazily sized; may be shorter than V
};

/// The bitwise weight difference of two graphs with identical topology:
/// every edge whose weight bits differ, with its weight in `after`. Applying
/// the result to `before` reproduces `after` exactly. O(|E|).
WeightUpdate DiffWeights(const WeightedDigraph& before,
                         const WeightedDigraph& after);

}  // namespace kgov::graph

#endif  // KGOV_GRAPH_GRAPH_H_
