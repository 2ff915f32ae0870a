#include "graph/graph.h"

#include <algorithm>
#include <cstring>

#include "common/contracts.h"
#include "common/logging.h"

namespace kgov::graph {

namespace {
const std::string kEmptyLabel;
}  // namespace

NodeId WeightedDigraph::AddNode() {
  out_edges_.emplace_back();
  return static_cast<NodeId>(out_edges_.size() - 1);
}

NodeId WeightedDigraph::AddNodes(size_t count) {
  NodeId first = static_cast<NodeId>(out_edges_.size());
  out_edges_.resize(out_edges_.size() + count);
  return first;
}

Result<EdgeId> WeightedDigraph::AddEdge(NodeId from, NodeId to,
                                        double weight) {
  if (!IsValidNode(from) || !IsValidNode(to)) {
    return Status::InvalidArgument("AddEdge: endpoint out of range");
  }
  if (weight < 0.0) {
    return Status::InvalidArgument("AddEdge: negative weight");
  }
  if (FindEdge(from, to).has_value()) {
    return Status::AlreadyExists("AddEdge: duplicate edge");
  }
  EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{from, to, weight});
  out_edges_[from].push_back(OutEdge{to, id});
  return id;
}

std::optional<EdgeId> WeightedDigraph::FindEdge(NodeId from, NodeId to) const {
  if (!IsValidNode(from)) return std::nullopt;
  for (const OutEdge& out : out_edges_[from]) {
    if (out.to == to) return out.edge;
  }
  return std::nullopt;
}

void WeightedDigraph::SetWeight(EdgeId id, double weight) {
  KGOV_DCHECK(id < edges_.size());
  edges_[id].weight = std::max(weight, 0.0);
}

void WeightedDigraph::ApplyWeightUpdate(const WeightUpdate& update) {
  for (const EdgeWeight& entry : update) {
    KGOV_DCHECK(entry.edge < edges_.size());
    edges_[entry.edge].weight = entry.weight;
  }
}

double WeightedDigraph::OutWeightSum(NodeId node) const {
  double sum = 0.0;
  for (const OutEdge& out : out_edges_[node]) {
    sum += edges_[out.edge].weight;
  }
  return sum;
}

void WeightedDigraph::NormalizeOutWeights(NodeId node) {
  double sum = OutWeightSum(node);
  if (sum <= 0.0) return;
  for (const OutEdge& out : out_edges_[node]) {
    edges_[out.edge].weight /= sum;
  }
}

void WeightedDigraph::NormalizeAllOutWeights() {
  for (NodeId node = 0; node < out_edges_.size(); ++node) {
    NormalizeOutWeights(node);
  }
}

bool WeightedDigraph::IsSubStochastic(double tol) const {
  for (NodeId node = 0; node < out_edges_.size(); ++node) {
    if (OutWeightSum(node) > 1.0 + tol) return false;
  }
  return true;
}

double WeightedDigraph::AverageDegree() const {
  if (out_edges_.empty()) return 0.0;
  return static_cast<double>(edges_.size()) /
         static_cast<double>(out_edges_.size());
}

void WeightedDigraph::SetNodeLabel(NodeId node, std::string label) {
  KGOV_CHECK(IsValidNode(node));
  if (labels_.size() <= node) labels_.resize(node + 1);
  labels_[node] = std::move(label);
}

const std::string& WeightedDigraph::NodeLabel(NodeId node) const {
  if (node < labels_.size()) return labels_[node];
  return kEmptyLabel;
}

WeightUpdate DiffWeights(const WeightedDigraph& before,
                         const WeightedDigraph& after) {
  KGOV_CHECK(before.NumEdges() == after.NumEdges());
  WeightUpdate diff;
  for (EdgeId e = 0; e < before.NumEdges(); ++e) {
    const double a = before.Weight(e);
    const double b = after.Weight(e);
    if (std::memcmp(&a, &b, sizeof(double)) != 0) {
      diff.push_back(EdgeWeight{e, b});
    }
  }
  return diff;
}

}  // namespace kgov::graph
