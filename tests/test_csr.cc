#include "graph/csr.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"

namespace kgov::graph {
namespace {

TEST(CsrTest, EmptyGraph) {
  CsrSnapshot snap{WeightedDigraph{}};
  EXPECT_EQ(snap.NumNodes(), 0u);
  EXPECT_EQ(snap.NumEdges(), 0u);
  EXPECT_FALSE(snap.IsValidNode(0));
  GraphView view = snap.View();
  EXPECT_EQ(view.NumNodes(), 0u);
  EXPECT_EQ(view.NumEdges(), 0u);
  EXPECT_FALSE(view.IsValidNode(0));
  EXPECT_TRUE(view.IsSubStochastic());
}

TEST(CsrTest, DefaultConstructedIsEmpty) {
  CsrSnapshot snap;
  EXPECT_EQ(snap.NumNodes(), 0u);
  GraphView view = snap.View();
  EXPECT_EQ(view.NumNodes(), 0u);
  EXPECT_EQ(view.NumEdges(), 0u);
  EXPECT_FALSE(view.IsValidNode(0));
}

TEST(CsrTest, IsolatedTailNodesSnapshotIsValid) {
  // Nodes past the last edge source must still have well-formed (empty)
  // neighbor ranges.
  WeightedDigraph g(5);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.4).ok());
  CsrSnapshot snap(g);
  EXPECT_EQ(snap.NumNodes(), 5u);
  EXPECT_EQ(snap.NumEdges(), 1u);
  for (NodeId v = 1; v < 5; ++v) {
    EXPECT_EQ(snap.OutDegree(v), 0u);
    EXPECT_EQ(snap.begin(v), snap.end(v));
    EXPECT_DOUBLE_EQ(snap.OutWeightSum(v), 0.0);
  }
  GraphView view = snap.View();
  EXPECT_EQ(view.NumNodes(), 5u);
  EXPECT_EQ(view.OutDegree(4), 0u);
  EXPECT_EQ(view.begin(4), view.end(4));
}

TEST(CsrTest, EdgelessNodesOnlySnapshotIsValid) {
  WeightedDigraph g(3);
  CsrSnapshot snap(g);
  EXPECT_EQ(snap.NumNodes(), 3u);
  EXPECT_EQ(snap.NumEdges(), 0u);
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(snap.begin(v), snap.end(v));
  }
  EXPECT_TRUE(snap.View().IsSubStochastic());
}

TEST(CsrTest, ViewCarriesEdgeIds) {
  WeightedDigraph g(3);
  EdgeId e01 = *g.AddEdge(0, 1, 0.3);
  EdgeId e02 = *g.AddEdge(0, 2, 0.7);
  EdgeId e21 = *g.AddEdge(2, 1, 1.0);
  CsrSnapshot snap(g);
  GraphView view = snap.View();
  ASSERT_TRUE(view.HasEdgeIds());
  ASSERT_EQ(view.OutDegree(0), 2u);
  EXPECT_EQ(view.edge_ids(0)[0], e01);
  EXPECT_EQ(view.edge_ids(0)[1], e02);
  EXPECT_EQ(view.edge_ids(2)[0], e21);
  // Each slot's id resolves to the edge the slot describes.
  for (NodeId v = 0; v < view.NumNodes(); ++v) {
    const GraphView::Neighbor* b = view.begin(v);
    const EdgeId* ids = view.edge_ids(v);
    for (size_t i = 0; i < view.OutDegree(v); ++i) {
      EXPECT_EQ(g.edge(ids[i]).from, v);
      EXPECT_EQ(g.edge(ids[i]).to, b[i].to);
      EXPECT_DOUBLE_EQ(g.Weight(ids[i]), b[i].weight);
    }
  }
}

TEST(CsrTest, ViewMatchesSnapshotAccessors) {
  Rng rng(7);
  Result<WeightedDigraph> g = ErdosRenyi(30, 120, rng);
  ASSERT_TRUE(g.ok());
  CsrSnapshot snap(*g);
  GraphView view = snap.View();
  ASSERT_EQ(view.NumNodes(), snap.NumNodes());
  ASSERT_EQ(view.NumEdges(), snap.NumEdges());
  for (NodeId v = 0; v < snap.NumNodes(); ++v) {
    EXPECT_EQ(view.OutDegree(v), snap.OutDegree(v));
    EXPECT_NEAR(view.OutWeightSum(v), snap.OutWeightSum(v), 1e-15);
    EXPECT_EQ(view.begin(v), snap.begin(v));
    EXPECT_EQ(view.end(v), snap.end(v));
  }
}

TEST(CsrTest, CapturesTopologyAndWeights) {
  WeightedDigraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.3).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 0.7).ok());
  ASSERT_TRUE(g.AddEdge(2, 1, 1.0).ok());
  CsrSnapshot snap(g);
  EXPECT_EQ(snap.NumNodes(), 3u);
  EXPECT_EQ(snap.NumEdges(), 3u);
  EXPECT_EQ(snap.OutDegree(0), 2u);
  EXPECT_EQ(snap.OutDegree(1), 0u);
  EXPECT_EQ(snap.OutDegree(2), 1u);
  EXPECT_EQ(snap.begin(0)[0].to, 1u);
  EXPECT_DOUBLE_EQ(snap.begin(0)[0].weight, 0.3);
  EXPECT_EQ(snap.begin(0)[1].to, 2u);
  EXPECT_DOUBLE_EQ(snap.begin(2)->weight, 1.0);
}

TEST(CsrTest, SnapshotIsImmutableUnderGraphMutation) {
  WeightedDigraph g(2);
  EdgeId e = *g.AddEdge(0, 1, 0.5);
  CsrSnapshot snap(g);
  g.SetWeight(e, 0.9);
  EXPECT_DOUBLE_EQ(snap.begin(0)->weight, 0.5);
}

TEST(CsrTest, OutWeightSumMatchesGraph) {
  Rng rng(5);
  Result<WeightedDigraph> g = ErdosRenyi(40, 160, rng);
  ASSERT_TRUE(g.ok());
  CsrSnapshot snap(*g);
  for (NodeId v = 0; v < g->NumNodes(); ++v) {
    EXPECT_NEAR(snap.OutWeightSum(v), g->OutWeightSum(v), 1e-12);
  }
}

TEST(CsrTest, NeighborRangesPartitionEdges) {
  Rng rng(6);
  Result<WeightedDigraph> g = ErdosRenyi(30, 120, rng);
  ASSERT_TRUE(g.ok());
  CsrSnapshot snap(*g);
  size_t total = 0;
  for (NodeId v = 0; v < snap.NumNodes(); ++v) {
    total += static_cast<size_t>(snap.end(v) - snap.begin(v));
    EXPECT_EQ(static_cast<size_t>(snap.end(v) - snap.begin(v)),
              g->OutDegree(v));
  }
  EXPECT_EQ(total, g->NumEdges());
}

}  // namespace
}  // namespace kgov::graph
