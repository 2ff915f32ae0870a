// Immutable CSR (compressed sparse row) snapshot of a WeightedDigraph.
//
// The mutable adjacency-list graph is ideal for the optimizer (O(1) weight
// writes), but each out-edge access indirects through the edge table. A
// serving system that answers many queries between optimization rounds can
// freeze the current weights into a CSR snapshot: contiguous
// (target, weight) pairs per node, cache-friendly and pointer-free, plus a
// parallel edge-id table so EdgeId-keyed weight overrides keep working.
// Read-side consumers access a snapshot through its View() (graph::GraphView,
// see graph/graph_view.h); the view borrows the snapshot's arrays and is
// valid only while the snapshot is alive.

#ifndef KGOV_GRAPH_CSR_H_
#define KGOV_GRAPH_CSR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"

namespace kgov::graph {

/// Frozen graph storage. Cheap to move, immutable after construction.
///
/// The topology arrays (row offsets, slot -> edge id, edge id -> slot) are
/// held through a shared_ptr: a snapshot derived with WithUpdate shares
/// them with its base and owns only its neighbour array. Copies share the
/// topology too.
class CsrSnapshot {
 public:
  /// A single out-neighbor entry (same layout the GraphView iterates).
  using Neighbor = GraphView::Neighbor;

  /// An empty snapshot (0 nodes); its View() is the empty view.
  CsrSnapshot() = default;

  /// Captures the current topology and weights of `graph`. Valid for any
  /// graph, including the empty graph and graphs whose tail nodes have no
  /// out-edges.
  explicit CsrSnapshot(const WeightedDigraph& graph);

  /// The snapshot of this snapshot's graph after `update` (sorted unique
  /// edge ids, see graph::WeightUpdate): shares this snapshot's topology,
  /// copies its neighbour array and patches the updated slots through the
  /// edge -> slot index. Bit-identical to CsrSnapshot(graph) of the
  /// updated graph, at the cost of one array copy plus O(|update|).
  CsrSnapshot WithUpdate(const WeightUpdate& update) const;

  size_t NumNodes() const {
    return topology_ == nullptr ? 0 : topology_->offsets.size() - 1;
  }
  size_t NumEdges() const { return neighbors_.size(); }
  bool IsValidNode(NodeId node) const { return node < NumNodes(); }

  /// Out-neighbors of `node` as a contiguous range.
  const Neighbor* begin(NodeId node) const {
    return neighbors_.data() + topology_->offsets[node];
  }
  const Neighbor* end(NodeId node) const {
    return neighbors_.data() + topology_->offsets[node + 1];
  }
  size_t OutDegree(NodeId node) const {
    return topology_->offsets[node + 1] - topology_->offsets[node];
  }

  /// Sum of outgoing weights of `node`.
  double OutWeightSum(NodeId node) const;

  /// The non-owning read view over this snapshot, including the edge-id
  /// table (view.HasEdgeIds() is true). Valid while the snapshot lives.
  GraphView View() const {
    if (topology_ == nullptr) return GraphView{};
    return GraphView(NumNodes(), topology_->offsets.data(), neighbors_.data(),
                     topology_->edge_ids.data());
  }

 private:
  // Weight-independent arrays, immutable once built and shared by every
  // snapshot derived from the same graph topology.
  struct Topology {
    // offsets[v]..offsets[v+1] indexes the neighbour array for node v;
    // NumNodes()+1 entries.
    std::vector<size_t> offsets;
    // Parallel to the neighbour array: the EdgeId each slot came from.
    std::vector<EdgeId> edge_ids;
    // Inverse of edge_ids: the slot of each EdgeId (an EdgeId-sized index,
    // since a graph never has more slots than EdgeId values).
    std::vector<EdgeId> slot_of_edge;
  };

  // Null for the default-constructed (empty) snapshot.
  std::shared_ptr<const Topology> topology_;
  std::vector<Neighbor> neighbors_;
};

}  // namespace kgov::graph

#endif  // KGOV_GRAPH_CSR_H_
