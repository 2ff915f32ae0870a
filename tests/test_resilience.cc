#include "core/resilience.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/fault_injection.h"
#include "graph/graph.h"
#include "math/sgp_problem.h"

namespace kgov::core {
namespace {

using math::Monomial;
using math::SgpFormulation;
using math::SgpProblem;
using math::Signomial;

// Same toy program as the solver tests: x0 (0.3), x1 (0.7) in [0.01, 1],
// one constraint wanting x0 >= x1.
SgpProblem MakeSwapProblem() {
  SgpProblem problem;
  problem.AddVariable(0.3, 0.01, 1.0);
  problem.AddVariable(0.7, 0.01, 1.0);
  Signomial g;
  g.AddTerm(Monomial(1.0, {{1, 1.0}}));
  g.AddTerm(Monomial(-1.0, {{0, 1.0}}));
  problem.AddConstraint(g, "x1<=x0");
  return problem;
}

TEST(ResilientSolverTest, FirstAttemptSuccessDoesNotRetry) {
  ResilientSgpSolver solver(math::SgpSolverOptions{}, RetryOptions{});
  ResilientSolveOutcome outcome = solver.Solve(MakeSwapProblem());
  EXPECT_TRUE(outcome.solution.status.ok());
  EXPECT_FALSE(outcome.exhausted);
  ASSERT_EQ(outcome.attempts.size(), 1u);
  EXPECT_TRUE(outcome.attempts[0].status.ok());
}

TEST(ResilientSolverTest, RetriesKeepTheConfiguredFormulation) {
  // The first two solve attempts are forced to fail; the third, a
  // jittered restart of the same formulation, succeeds on the real
  // problem.
  {
    ScopedFault fault(FaultSite::kSolveNonConvergence,
                      {.probability = 1.0, .max_fires = 2});
    RetryOptions retry;
    retry.max_attempts = 3;
    ResilientSgpSolver solver(math::SgpSolverOptions{}, retry);
    ResilientSolveOutcome outcome = solver.Solve(MakeSwapProblem());
    EXPECT_TRUE(outcome.solution.status.ok());
    EXPECT_FALSE(outcome.exhausted);
    ASSERT_EQ(outcome.attempts.size(), 3u);
    EXPECT_TRUE(outcome.attempts[0].status.IsNotConverged());
    EXPECT_TRUE(outcome.attempts[1].status.IsNotConverged());
    EXPECT_TRUE(outcome.attempts[2].status.ok());
    EXPECT_EQ(outcome.solution.satisfied_constraints, 1);
  }
  // Hard constraints that contradict each other stay infeasible on every
  // restart: no retry switches to a penalty formulation that would
  // report success.
  SgpProblem conflicting = MakeSwapProblem();
  Signomial reverse;
  reverse.AddTerm(Monomial(1.0, {{0, 1.0}}));
  reverse.AddTerm(Monomial(-1.0, {{1, 1.0}}));
  conflicting.AddConstraint(reverse, "x0<=x1");
  math::SgpSolverOptions hard;
  hard.formulation = SgpFormulation::kHardConstraints;
  RetryOptions retry;
  retry.max_attempts = 3;
  ResilientSolveOutcome outcome =
      ResilientSgpSolver(hard, retry).Solve(conflicting);
  EXPECT_TRUE(outcome.exhausted);
  ASSERT_EQ(outcome.attempts.size(), 3u);
  for (const SolveAttempt& attempt : outcome.attempts) {
    EXPECT_FALSE(attempt.status.ok()) << attempt.attempt;
  }
  EXPECT_FALSE(outcome.solution.status.ok());
}

TEST(ResilientSolverTest, ExhaustedStillReturnsFinitePoint) {
  ScopedFault fault(FaultSite::kSolveNonConvergence, {.probability = 1.0});
  RetryOptions retry;
  retry.max_attempts = 2;
  ResilientSgpSolver solver(math::SgpSolverOptions{}, retry);
  SgpProblem problem = MakeSwapProblem();
  ResilientSolveOutcome outcome = solver.Solve(problem);
  EXPECT_TRUE(outcome.exhausted);
  EXPECT_EQ(outcome.attempts.size(), 2u);
  EXPECT_TRUE(outcome.solution.status.IsNotConverged());
  ASSERT_EQ(outcome.solution.x.size(), 2u);
  for (double v : outcome.solution.x) EXPECT_TRUE(std::isfinite(v));
}

TEST(ResilientSolverTest, NonRetryableErrorStopsImmediately) {
  SgpProblem problem;
  problem.AddVariable(0.5, 0.0, 1.0);
  problem.AddConstraint(Signomial(Monomial(1.0, {{9, 1.0}})), "bad");
  RetryOptions retry;
  retry.max_attempts = 5;
  ResilientSgpSolver solver(math::SgpSolverOptions{}, retry);
  ResilientSolveOutcome outcome = solver.Solve(problem);
  EXPECT_TRUE(outcome.exhausted);
  EXPECT_EQ(outcome.attempts.size(), 1u);  // structural error: no retries
  EXPECT_FALSE(outcome.solution.status.ok());
}

TEST(ResilientSolverTest, RetriesAreDeterministicUnderFixedSeed) {
  RetryOptions retry;
  retry.max_attempts = 2;
  ResilientSgpSolver solver(math::SgpSolverOptions{}, retry);

  auto run = [&solver]() {
    // Fail the first attempt so the second starts from a jittered point.
    ScopedFault fault(FaultSite::kSolveNonConvergence,
                      {.probability = 1.0, .max_fires = 1});
    return solver.Solve(MakeSwapProblem(), /*seed_salt=*/7);
  };
  ResilientSolveOutcome a = run();
  ResilientSolveOutcome b = run();
  ASSERT_EQ(a.attempts.size(), 2u);
  ASSERT_EQ(b.attempts.size(), 2u);
  EXPECT_EQ(a.solution.x, b.solution.x);  // bitwise-identical replay
  EXPECT_EQ(a.solution.status.code(), b.solution.status.code());
}

// ---------------------------------------------------------------------------
// ValidateGraphUpdate

graph::WeightedDigraph MakeGraph() {
  graph::WeightedDigraph g(3);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.4).ok());
  EXPECT_TRUE(g.AddEdge(1, 2, 1.0).ok());
  return g;
}

TEST(GraphValidatorTest, AcceptsWeightOnlyUpdate) {
  graph::WeightedDigraph before = MakeGraph();
  graph::WeightedDigraph after = before;
  after.SetWeight(0, 0.7);
  after.SetWeight(1, 0.3);
  EXPECT_TRUE(ValidateGraphUpdate(before, after).ok());
}

TEST(GraphValidatorTest, RejectsNonFiniteWeight) {
  graph::WeightedDigraph before = MakeGraph();
  graph::WeightedDigraph after = before;
  after.SetWeight(1, std::numeric_limits<double>::quiet_NaN());
  Status status = ValidateGraphUpdate(before, after);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("non-finite"), std::string::npos);
}

TEST(GraphValidatorTest, RejectsOutOfBoundsWeight) {
  graph::WeightedDigraph before = MakeGraph();
  graph::WeightedDigraph after = before;
  after.SetWeight(2, 1.5);
  Status status = ValidateGraphUpdate(before, after);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(GraphValidatorTest, RejectsBrokenNormalization) {
  graph::WeightedDigraph before = MakeGraph();
  graph::WeightedDigraph after = before;
  after.SetWeight(0, 0.9);  // node 0 out-weights now sum to 1.3
  Status status = ValidateGraphUpdate(before, after);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("normalization"), std::string::npos);
}

TEST(GraphValidatorTest, RejectsEdgeDrift) {
  graph::WeightedDigraph before = MakeGraph();
  graph::WeightedDigraph after = before;
  ASSERT_TRUE(after.AddEdge(2, 0, 0.1).ok());
  Status status = ValidateGraphUpdate(before, after);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("drift"), std::string::npos);
}

TEST(GraphValidatorTest, RejectsNodeCountDrift) {
  graph::WeightedDigraph before = MakeGraph();
  graph::WeightedDigraph after(4);
  EXPECT_FALSE(ValidateGraphUpdate(before, after).ok());
}

}  // namespace
}  // namespace kgov::core
