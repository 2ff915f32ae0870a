// Tests for the vote-weight extension: per-vote trust scales the vote's
// constraint penalties, so a heavier vote wins conflicts against a lighter
// one.

#include <gtest/gtest.h>

#include "core/kg_optimizer.h"
#include "core/scoring.h"
#include "graph/csr.h"
#include "math/sgp_problem.h"
#include "math/sgp_solver.h"
#include "ppr/eipd_engine.h"

namespace kgov {
namespace {

using graph::WeightedDigraph;

// One-shot Phi(seed, answer) via a snapshot of the given live graph.
double Similarity(const WeightedDigraph& g, const ppr::QuerySeed& seed,
                  graph::NodeId answer, const ppr::EipdOptions& options) {
  graph::CsrSnapshot snap(g);
  ppr::EipdEngine engine(snap.View(), options);
  return engine.Scores(seed, {answer}).value()[0];
}

WeightedDigraph MakeFixture() {
  WeightedDigraph g(5);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.4).ok());
  EXPECT_TRUE(g.AddEdge(1, 3, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(2, 4, 1.0).ok());
  return g;
}

votes::Vote MakeVote(graph::NodeId best, double weight, uint32_t id) {
  votes::Vote vote;
  vote.id = id;
  vote.weight = weight;
  vote.query.links.emplace_back(0, 1.0);
  vote.answer_list = {3, 4};
  vote.best_answer = best;
  return vote;
}

TEST(SgpConstraintWeightTest, DefaultIsOne) {
  math::SgpProblem problem;
  problem.AddVariable(0.5, 0.0, 1.0);
  problem.AddConstraint(math::Signomial(math::Monomial(1.0, {{0, 1.0}})),
                        "c");
  EXPECT_DOUBLE_EQ(problem.constraints()[0].weight, 1.0);
}

TEST(SgpConstraintWeightTest, StoredWeight) {
  math::SgpProblem problem;
  problem.AddVariable(0.5, 0.0, 1.0);
  problem.AddConstraint(math::Signomial(math::Monomial(1.0, {{0, 1.0}})),
                        "c", 3.5);
  EXPECT_DOUBLE_EQ(problem.constraints()[0].weight, 3.5);
}

TEST(SgpConstraintWeightTest, ZeroWeightRejected) {
  math::SgpProblem problem;
  problem.AddVariable(0.5, 0.0, 1.0);
  EXPECT_DEATH(problem.AddConstraint(
                   math::Signomial(math::Monomial(1.0, {{0, 1.0}})), "c", 0.0),
               "positive");
}

TEST(VoteWeightTest, HeavierVoteWinsConflict) {
  // Two directly conflicting votes on the same query: one says answer 4 is
  // best (weight 5), one confirms answer 3 (weight 1). The weighted
  // multi-vote objective should side with the heavy vote.
  WeightedDigraph g = MakeFixture();
  core::OptimizerOptions options;
  options.encoder.symbolic.eipd.max_length = 4;
  options.apply_judgment_filter = false;
  options.sgp.lambda1 = 0.1;  // let the votes dominate

  core::KgOptimizer optimizer(&g, options);
  std::vector<votes::Vote> conflict{MakeVote(4, 5.0, 0), MakeVote(3, 1.0, 1)};
  Result<core::OptimizeReport> report = optimizer.MultiVoteSolve(conflict);
  ASSERT_TRUE(report.ok());

  ppr::EipdOptions eipd;
  eipd.max_length = 4;
  const WeightedDigraph optimized = core::OptimizedGraph(g, *report);
  double s3 = Similarity(optimized, conflict[0].query, 3, eipd);
  double s4 = Similarity(optimized, conflict[0].query, 4, eipd);
  EXPECT_GT(s4, s3);
}

TEST(VoteWeightTest, LighterVoteLosesConflict) {
  // Mirror case: the vote for 4 is now the light one; the confirmation of
  // 3 dominates and the ranking stays.
  WeightedDigraph g = MakeFixture();
  core::OptimizerOptions options;
  options.encoder.symbolic.eipd.max_length = 4;
  options.apply_judgment_filter = false;
  options.sgp.lambda1 = 0.1;

  core::KgOptimizer optimizer(&g, options);
  std::vector<votes::Vote> conflict{MakeVote(4, 1.0, 0), MakeVote(3, 5.0, 1)};
  Result<core::OptimizeReport> report = optimizer.MultiVoteSolve(conflict);
  ASSERT_TRUE(report.ok());

  ppr::EipdOptions eipd;
  eipd.max_length = 4;
  const WeightedDigraph optimized = core::OptimizedGraph(g, *report);
  double s3 = Similarity(optimized, conflict[0].query, 3, eipd);
  double s4 = Similarity(optimized, conflict[0].query, 4, eipd);
  EXPECT_GT(s3, s4);
}

TEST(VoteWeightTest, WeightsWorkInDeviationFormulation) {
  WeightedDigraph g = MakeFixture();
  core::OptimizerOptions options;
  options.encoder.symbolic.eipd.max_length = 4;
  options.apply_judgment_filter = false;
  options.sgp.lambda1 = 0.1;
  options.sgp.formulation = math::SgpFormulation::kDeviationVariables;

  core::KgOptimizer optimizer(&g, options);
  std::vector<votes::Vote> conflict{MakeVote(4, 5.0, 0), MakeVote(3, 1.0, 1)};
  Result<core::OptimizeReport> report = optimizer.MultiVoteSolve(conflict);
  ASSERT_TRUE(report.ok());

  ppr::EipdOptions eipd;
  eipd.max_length = 4;
  const WeightedDigraph optimized = core::OptimizedGraph(g, *report);
  EXPECT_GT(Similarity(optimized, conflict[0].query, 4, eipd),
            Similarity(optimized, conflict[0].query, 3, eipd));
}

TEST(VoteWeightTest, EqualWeightsMatchUnweightedBehaviour) {
  WeightedDigraph g = MakeFixture();
  core::OptimizerOptions options;
  options.encoder.symbolic.eipd.max_length = 4;
  core::KgOptimizer optimizer(&g, options);

  Result<core::OptimizeReport> weighted =
      optimizer.MultiVoteSolve({MakeVote(4, 1.0, 0)});
  votes::Vote plain = MakeVote(4, 1.0, 0);
  Result<core::OptimizeReport> unweighted =
      optimizer.MultiVoteSolve({plain});
  ASSERT_TRUE(weighted.ok() && unweighted.ok());
  const WeightedDigraph gw = core::OptimizedGraph(g, *weighted);
  const WeightedDigraph gu = core::OptimizedGraph(g, *unweighted);
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_NEAR(gw.Weight(e), gu.Weight(e), 1e-12);
  }
}

}  // namespace
}  // namespace kgov
