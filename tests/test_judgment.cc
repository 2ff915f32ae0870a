#include "votes/judgment.h"

#include <gtest/gtest.h>

#include "graph/csr.h"

namespace kgov::votes {
namespace {

using graph::WeightedDigraph;

// Fixture where answers 3 and 4 are reachable from the query via disjoint
// and shared edges.
WeightedDigraph MakeFixture() {
  WeightedDigraph g(5);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(1, 3, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(2, 4, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(2, 1, 0.4).ok());
  return g;
}

Vote MakeVote(std::vector<graph::NodeId> list, graph::NodeId best) {
  Vote vote;
  vote.query.links.emplace_back(0, 1.0);
  vote.answer_list = std::move(list);
  vote.best_answer = best;
  return vote;
}

JudgmentOptions DefaultOptions() {
  JudgmentOptions options;
  options.symbolic.eipd.max_length = 4;
  return options;
}

TEST(JudgmentTest, PositiveVoteAlwaysSatisfiable) {
  WeightedDigraph g = MakeFixture();
  graph::CsrSnapshot csr(g);
  JudgmentFilter filter(&g, csr.View(), DefaultOptions());
  EXPECT_TRUE(filter.IsSatisfiable(MakeVote({3, 4}, 3)));
}

TEST(JudgmentTest, MalformedVoteRejected) {
  WeightedDigraph g = MakeFixture();
  graph::CsrSnapshot csr(g);
  JudgmentFilter filter(&g, csr.View(), DefaultOptions());
  Vote bad;
  EXPECT_FALSE(filter.IsSatisfiable(bad));
}

TEST(JudgmentTest, SatisfiableNegativeVoteAccepted) {
  // Answer 4 has an exclusive edge (2->4) that the extreme condition can
  // raise to 1 while zeroing 1->3; the vote for 4 is satisfiable.
  WeightedDigraph g = MakeFixture();
  graph::CsrSnapshot csr(g);
  JudgmentFilter filter(&g, csr.View(), DefaultOptions());
  EXPECT_TRUE(filter.IsSatisfiable(MakeVote({3, 4}, 4)));
}

TEST(JudgmentTest, UnreachableBestAnswerRejected) {
  // Node 4 unreachable: remove its only inbound edge by zero weight on a
  // fresh graph where 2->4 does not exist.
  WeightedDigraph g(5);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 3, 1.0).ok());
  graph::CsrSnapshot csr(g);
  JudgmentFilter filter(&g, csr.View(), DefaultOptions());
  // Vote claims 4 (unreachable) is best over 3: no weighting can help.
  EXPECT_FALSE(filter.IsSatisfiable(MakeVote({3, 4}, 4)));
}

TEST(JudgmentTest, SharedOnlyPathsDecidedByStructure) {
  // Both answers are reached through the single shared edge 0->1, then
  // diverge; the extreme condition gives the best answer's exclusive edge
  // weight 1 and the rival's 0, so the vote is satisfiable.
  WeightedDigraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.7).ok());  // rival answer 2
  ASSERT_TRUE(g.AddEdge(1, 3, 0.3).ok());  // best answer 3
  graph::CsrSnapshot csr(g);
  JudgmentFilter filter(&g, csr.View(), DefaultOptions());
  EXPECT_TRUE(filter.IsSatisfiable(MakeVote({2, 3}, 3)));
}

TEST(JudgmentTest, FixedEdgesCannotBeRaised) {
  // Same structure, but all edges are fixed (not optimizable): the extreme
  // condition cannot change anything, so the current ranking stands and
  // the vote for the lower answer is unsatisfiable.
  WeightedDigraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.7).ok());
  ASSERT_TRUE(g.AddEdge(1, 3, 0.3).ok());
  JudgmentOptions options = DefaultOptions();
  options.is_variable = [](const WeightedDigraph&, graph::EdgeId) {
    return false;
  };
  graph::CsrSnapshot csr(g);
  JudgmentFilter filter(&g, csr.View(), options);
  EXPECT_FALSE(filter.IsSatisfiable(MakeVote({2, 3}, 3)));
}

TEST(JudgmentTest, RankAboveComparatorUsed) {
  // Best answer at rank 3 competes against the answer at rank 2, not the
  // top answer. Construct scores s(5) > s(6) > s(7) and make 7 the best;
  // 7's exclusive path can be maxed, so it's satisfiable.
  WeightedDigraph g(8);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 0.3).ok());
  ASSERT_TRUE(g.AddEdge(0, 3, 0.2).ok());
  ASSERT_TRUE(g.AddEdge(1, 5, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 6, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(3, 7, 1.0).ok());
  graph::CsrSnapshot csr(g);
  JudgmentFilter filter(&g, csr.View(), DefaultOptions());
  EXPECT_TRUE(filter.IsSatisfiable(MakeVote({5, 6, 7}, 7)));
}

TEST(JudgmentTest, FilterVotesKeepsOrder) {
  WeightedDigraph g = MakeFixture();
  graph::CsrSnapshot csr(g);
  JudgmentFilter filter(&g, csr.View(), DefaultOptions());
  Vote v1 = MakeVote({3, 4}, 4);
  v1.id = 1;
  Vote bad;  // malformed -> dropped
  bad.id = 2;
  Vote v3 = MakeVote({3, 4}, 3);
  v3.id = 3;
  std::vector<Vote> kept = filter.FilterVotes({v1, bad, v3});
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].id, 1u);
  EXPECT_EQ(kept[1].id, 3u);
}

}  // namespace
}  // namespace kgov::votes
