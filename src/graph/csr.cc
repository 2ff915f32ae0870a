#include "graph/csr.h"

#include "common/contracts.h"

namespace kgov::graph {

CsrSnapshot::CsrSnapshot(const WeightedDigraph& graph) {
  const size_t n = graph.NumNodes();
  auto topology = std::make_shared<Topology>();
  topology->offsets.resize(n + 1, 0);
  topology->edge_ids.reserve(graph.NumEdges());
  topology->slot_of_edge.resize(graph.NumEdges());
  neighbors_.reserve(graph.NumEdges());
  for (NodeId v = 0; v < n; ++v) {
    topology->offsets[v] = neighbors_.size();
    for (const OutEdge& out : graph.OutEdges(v)) {
      topology->slot_of_edge[out.edge] =
          static_cast<EdgeId>(neighbors_.size());
      neighbors_.push_back(Neighbor{out.to, graph.Weight(out.edge)});
      topology->edge_ids.push_back(out.edge);
    }
  }
  topology->offsets[n] = neighbors_.size();
  topology_ = std::move(topology);
}

CsrSnapshot CsrSnapshot::WithUpdate(const WeightUpdate& update) const {
  CsrSnapshot next = *this;
  for (const EdgeWeight& entry : update) {
    KGOV_DCHECK(entry.edge < NumEdges());
    next.neighbors_[topology_->slot_of_edge[entry.edge]].weight = entry.weight;
  }
  return next;
}

double CsrSnapshot::OutWeightSum(NodeId node) const {
  double sum = 0.0;
  for (const Neighbor* it = begin(node); it != end(node); ++it) {
    sum += it->weight;
  }
  return sum;
}

}  // namespace kgov::graph
