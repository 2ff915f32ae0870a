// Differential oracle for OnlineKgOptimizer's update-based flush.
//
// The flush validates, diffs and publishes over the optimizer's weight
// update: it reads only the updated edges and their source nodes, applies
// the update to its graph in place, and patches the next snapshot from the
// current one. The reference here runs the whole-graph stages instead:
// solve on its own graph copy (building its own CSR for the judgment
// filter and verification), copy the graph and apply the update, run
// ValidateGraphUpdate over the whole graph, diff every edge bitwise, and
// build CsrSnapshot(graph) from scratch. Both must agree bit for bit on
// the graph, the published snapshot, the changed clusters, the flush
// verdict and the served rankings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/kg_optimizer.h"
#include "core/online_optimizer.h"
#include "core/resilience.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "ppr/eipd_engine.h"
#include "stream/partition.h"
#include "votes/vote_generator.h"

namespace kgov::core {
namespace {

using graph::WeightedDigraph;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// What the reference decided for one flush.
struct ReferenceOutcome {
  Status status;
  bool published = false;
  std::vector<uint32_t> changed_clusters;
};

// The whole-graph flush: the stages the update-based flush replaced.
class ReferenceFlusher {
 public:
  ReferenceFlusher(const WeightedDigraph& initial,
                   const OnlineKgOptimizer& online)
      : graph_(initial),
        snapshot_(std::make_shared<graph::CsrSnapshot>(graph_)),
        options_(online.options()),
        partition_(online.partition()) {}

  // `corrupt` mirrors the kGraphCorruption fault: edge 0 turns NaN in the
  // optimized graph before validation.
  ReferenceOutcome Flush(const std::vector<votes::Vote>& batch,
                         const std::vector<uint32_t>* scope,
                         bool corrupt = false) {
    ReferenceOutcome outcome;
    KgOptimizer optimizer(&graph_, options_.optimizer);
    Result<OptimizeReport> result = Solve(optimizer, batch, scope);
    if (!result.ok()) {
      outcome.status = result.status();
      return outcome;
    }
    WeightedDigraph after = graph_;
    after.ApplyWeightUpdate(result->update);
    if (corrupt && after.NumEdges() > 0) {
      after.SetWeight(0, std::numeric_limits<double>::quiet_NaN());
    }
    outcome.status = ValidateGraphUpdate(graph_, after, options_.validator);
    if (!outcome.status.ok()) return outcome;
    std::vector<uint32_t> changed;
    for (graph::EdgeId e = 0; e < graph_.NumEdges(); ++e) {
      if (!SameBits(graph_.Weight(e), after.Weight(e))) {
        changed.push_back(partition_->ClusterOf(graph_.edge(e).from));
      }
    }
    stream::CanonicalizeClusterSet(&changed);
    const size_t applied = batch.size() - result->quarantined_votes.size();
    outcome.published = applied > 0 && (scope == nullptr || !changed.empty());
    if (outcome.published) {
      outcome.changed_clusters = std::move(changed);
      graph_ = std::move(after);
      snapshot_ = std::make_shared<graph::CsrSnapshot>(graph_);
    }
    return outcome;
  }

  const WeightedDigraph& graph() const { return graph_; }
  const graph::CsrSnapshot& snapshot() const { return *snapshot_; }

 private:
  Result<OptimizeReport> Solve(const KgOptimizer& optimizer,
                               const std::vector<votes::Vote>& batch,
                               const std::vector<uint32_t>* scope) const {
    const bool multi = options_.strategy == FlushStrategy::kMultiVote;
    if (scope == nullptr) {
      return multi ? optimizer.MultiVoteSolve(batch)
                   : optimizer.SplitMergeSolve(batch);
    }
    std::vector<uint32_t> dirty = *scope;
    stream::CanonicalizeClusterSet(&dirty);
    ppr::SymbolicEipd::VariablePredicate in_scope =
        [part = partition_, dirty](const WeightedDigraph& g, graph::EdgeId e) {
          return std::binary_search(dirty.begin(), dirty.end(),
                                    part->ClusterOf(g.edge(e).from));
        };
    return multi ? optimizer.MultiVoteSolveScoped(batch, std::move(in_scope))
                 : optimizer.SplitMergeSolveScoped(batch, std::move(in_scope));
  }

  WeightedDigraph graph_;
  std::shared_ptr<const graph::CsrSnapshot> snapshot_;
  OnlineOptimizerOptions options_;
  std::shared_ptr<const stream::GraphPartition> partition_;
};

void ExpectSameGraphWeights(const WeightedDigraph& got,
                            const WeightedDigraph& want) {
  ASSERT_EQ(got.NumEdges(), want.NumEdges());
  for (graph::EdgeId e = 0; e < got.NumEdges(); ++e) {
    ASSERT_TRUE(SameBits(got.Weight(e), want.Weight(e)))
        << "edge " << e << ": " << got.Weight(e) << " vs " << want.Weight(e);
  }
}

// Offsets, neighbours (target and weight bits) and edge ids, slot by slot.
void ExpectSameSnapshot(const graph::CsrSnapshot& got,
                        const graph::CsrSnapshot& want) {
  ASSERT_EQ(got.NumNodes(), want.NumNodes());
  ASSERT_EQ(got.NumEdges(), want.NumEdges());
  const graph::GraphView g = got.View();
  const graph::GraphView w = want.View();
  for (graph::NodeId v = 0; v < got.NumNodes(); ++v) {
    ASSERT_EQ(g.begin(v) - g.begin(0), w.begin(v) - w.begin(0)) << v;
    ASSERT_EQ(g.OutDegree(v), w.OutDegree(v)) << v;
    for (size_t i = 0; i < g.OutDegree(v); ++i) {
      ASSERT_EQ(g.begin(v)[i].to, w.begin(v)[i].to) << v << "/" << i;
      ASSERT_TRUE(SameBits(g.begin(v)[i].weight, w.begin(v)[i].weight))
          << v << "/" << i;
      ASSERT_EQ(g.edge_ids(v)[i], w.edge_ids(v)[i]) << v << "/" << i;
    }
  }
}

void ExpectSameRankings(const graph::CsrSnapshot& got,
                        const graph::CsrSnapshot& want,
                        const std::vector<votes::Vote>& queries,
                        const ppr::EipdOptions& eipd) {
  ppr::EipdEngine got_engine(got.View(), eipd);
  ppr::EipdEngine want_engine(want.View(), eipd);
  for (const votes::Vote& vote : queries) {
    auto a = got_engine.Rank(vote.query, vote.answer_list, 5);
    auto b = want_engine.Rank(vote.query, vote.answer_list, 5);
    ASSERT_EQ(a.ok(), b.ok());
    if (!a.ok()) continue;
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].node, (*b)[i].node) << "vote " << vote.id;
      EXPECT_TRUE(SameBits((*a)[i].score, (*b)[i].score)) << "vote " << vote.id;
    }
  }
}

void ExpectSameStatus(const Status& got, const Status& want) {
  EXPECT_EQ(got.code(), want.code());
  EXPECT_EQ(got.ToString(), want.ToString());
}

struct FlushCase {
  uint64_t seed;
  FlushStrategy strategy;
};

class FlushUpdateDifferential : public ::testing::TestWithParam<FlushCase> {
 protected:
  void SetUp() override {
    Rng rng(GetParam().seed);
    Result<WeightedDigraph> base =
        graph::ScaleFreeWithTargetEdges(400, 1600, rng);
    ASSERT_TRUE(base.ok());
    votes::SyntheticVoteParams params;
    params.num_queries = 24;
    params.num_answers = 60;
    params.subgraph_nodes = 200;
    params.top_k = 8;
    params.negative_fraction = 0.7;
    params.eipd.max_length = 4;
    Result<votes::SyntheticWorkload> w =
        votes::GenerateSyntheticWorkload(*base, params, rng);
    ASSERT_TRUE(w.ok());
    workload_ = std::move(w).value();

    options_.strategy = GetParam().strategy;
    options_.partition_clusters = 8;
    options_.optimizer.encoder.symbolic.eipd.max_length = 4;
    options_.optimizer.encoder.symbolic.min_path_mass = 1e-8;
    options_.optimizer.encoder.is_variable = workload_.EntityEdgePredicate();
    options_.optimizer.retry.max_attempts = 1;
  }

  votes::SyntheticWorkload workload_;
  OnlineOptimizerOptions options_;
};

TEST_P(FlushUpdateDifferential, ScopedAndUnscopedFlushesMatchTheReference) {
  OnlineKgOptimizer online(workload_.graph, options_);
  ReferenceFlusher reference(workload_.graph, online);
  const stream::GraphPartition& partition = *online.partition();
  Rng rng(GetParam().seed * 7919 + 1);

  size_t published = 0;
  for (int round = 0; round < 14; ++round) {
    const size_t batch_size = 1 + rng.NextIndex(5);
    for (size_t i = 0; i < batch_size; ++i) {
      ASSERT_TRUE(online
                      .IngestLogged(workload_.votes[rng.NextIndex(
                          workload_.votes.size())])
                      .ok());
    }
    const std::vector<votes::Vote> batch = online.PendingVoteList();

    // Scope: none, the clusters the batch's queries and answers live in,
    // or a random cluster set (which may miss every vote and change
    // nothing).
    const uint64_t mode = rng.NextIndex(3);
    std::vector<uint32_t> dirty;
    if (mode == 1) {
      for (const votes::Vote& vote : batch) {
        for (const auto& [node, weight] : vote.query.links) {
          dirty.push_back(partition.ClusterOf(node));
        }
        for (graph::NodeId a : vote.answer_list) {
          dirty.push_back(partition.ClusterOf(a));
        }
      }
    } else if (mode == 2) {
      dirty.push_back(
          static_cast<uint32_t>(rng.NextIndex(partition.num_clusters())));
    }
    stream::CanonicalizeClusterSet(&dirty);
    const std::vector<uint32_t>* scope = mode == 0 ? nullptr : &dirty;

    const uint64_t epoch_before = online.CurrentEpochNumber();
    Result<FlushReport> got =
        scope == nullptr ? online.Flush() : online.FlushScoped(*scope);
    ReferenceOutcome want = reference.Flush(batch, scope);
    SCOPED_TRACE("round " + std::to_string(round) + " mode " +
                 std::to_string(mode));

    ExpectSameStatus(got.status(), want.status);
    if (got.ok()) {
      EXPECT_EQ(got->epoch_published, want.published);
      EXPECT_EQ(got->changed_clusters, want.changed_clusters);
      EXPECT_EQ(online.CurrentEpochNumber(),
                epoch_before + (want.published ? 1 : 0));
      published += want.published ? 1 : 0;
    } else {
      // Rolled back or failed: the batch stays buffered and is part of the
      // next round's batch on both sides.
      EXPECT_EQ(online.CurrentEpochNumber(), epoch_before);
    }
    ExpectSameGraphWeights(online.graph(), reference.graph());
    ExpectSameSnapshot(*online.CurrentEpoch().snapshot, reference.snapshot());
    ExpectSameRankings(*online.CurrentEpoch().snapshot, reference.snapshot(),
                       batch, options_.optimizer.encoder.symbolic.eipd);
  }
  EXPECT_GT(published, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FlushUpdateDifferential,
    ::testing::Values(FlushCase{1, FlushStrategy::kSplitMerge},
                      FlushCase{2, FlushStrategy::kSplitMerge},
                      FlushCase{3, FlushStrategy::kMultiVote},
                      FlushCase{4, FlushStrategy::kMultiVote}),
    [](const ::testing::TestParamInfo<FlushCase>& info) {
      return std::string(info.param.strategy == FlushStrategy::kSplitMerge
                             ? "SplitMerge"
                             : "MultiVote") +
             std::to_string(info.param.seed);
    });

// Five nodes: query at 0, answers 3 and 4; plus a detached edge 5 -> 6
// that no vote can reach.
WeightedDigraph MakeFixture() {
  WeightedDigraph g(7);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.4).ok());
  EXPECT_TRUE(g.AddEdge(1, 3, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(2, 4, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(5, 6, 1.0).ok());
  return g;
}

votes::Vote MakeVote(uint32_t id) {
  votes::Vote vote;
  vote.id = id;
  vote.query.links.emplace_back(0, 1.0);
  vote.answer_list = {3, 4};
  vote.best_answer = 4;
  return vote;
}

OnlineOptimizerOptions FixtureOptions() {
  OnlineOptimizerOptions options;
  options.batch_size = 100;
  options.optimizer.encoder.symbolic.eipd.max_length = 4;
  options.optimizer.apply_judgment_filter = false;
  options.strategy = FlushStrategy::kMultiVote;
  options.max_vote_attempts = 100;
  return options;
}

TEST(FlushUpdateRollbackTest, GraphCorruptionFaultRollsBackLikeTheReference) {
  const WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, FixtureOptions());
  ReferenceFlusher reference(g, online);
  const std::shared_ptr<const graph::CsrSnapshot> serving = online.snapshot();

  ASSERT_TRUE(online.AddVote(MakeVote(1)).ok());
  Result<FlushReport> got = [&] {
    ScopedFault fault(FaultSite::kGraphCorruption,
                      {.probability = 1.0, .max_fires = 1});
    return online.Flush();
  }();
  ReferenceOutcome want = reference.Flush({MakeVote(1)}, nullptr,
                                          /*corrupt=*/true);
  ASSERT_FALSE(got.ok());
  ExpectSameStatus(got.status(), want.status);
  EXPECT_EQ(online.RollbackCount(), 1u);
  EXPECT_EQ(online.snapshot().get(), serving.get());
  ExpectSameGraphWeights(online.graph(), g);

  // The re-queued vote applies on the next, clean flush.
  got = online.Flush();
  want = reference.Flush({MakeVote(1)}, nullptr);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(want.status.ok());
  EXPECT_EQ(got->changed_clusters, want.changed_clusters);
  ExpectSameGraphWeights(online.graph(), reference.graph());
  ExpectSameSnapshot(*online.snapshot(), reference.snapshot());
}

TEST(FlushUpdateRollbackTest, OutOfBoundsBaselineRollsBackEveryFlush) {
  // The detached edge 5 -> 6 breaks the validator's weight bound and no
  // vote can reach it, so no update repairs it: every flush rolls back,
  // exactly as the whole-graph validator decides.
  WeightedDigraph g = MakeFixture();
  g.SetWeight(4, 3.0);
  OnlineKgOptimizer online(g, FixtureOptions());
  ReferenceFlusher reference(g, online);
  const std::shared_ptr<const graph::CsrSnapshot> serving = online.snapshot();
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(online.IngestLogged(MakeVote(i)).ok());
    const std::vector<votes::Vote> batch = online.PendingVoteList();
    Result<FlushReport> got = online.Flush();
    ReferenceOutcome want = reference.Flush(batch, nullptr);
    ASSERT_FALSE(want.status.ok());
    ASSERT_FALSE(got.ok());
    ExpectSameStatus(got.status(), want.status);
    EXPECT_EQ(online.RollbackCount(), i + 1);
    EXPECT_EQ(online.snapshot().get(), serving.get());
    EXPECT_EQ(online.CurrentEpochNumber(), 0u);
    ExpectSameGraphWeights(online.graph(), g);
  }
}

TEST(FlushUpdateRollbackTest, RepairingUpdateAppliesLikeTheReference) {
  // Node 0's out-weights break both the bound and sub-stochasticity, but
  // the vote renormalizes exactly node 0: the whole-graph validator
  // accepts the result, so the update validator must too. Afterwards the
  // graph is whole and later flushes validate against an empty baseline.
  WeightedDigraph g = MakeFixture();
  g.SetWeight(0, 1.5);
  OnlineKgOptimizer online(g, FixtureOptions());
  ReferenceFlusher reference(g, online);
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(online.IngestLogged(MakeVote(i)).ok());
    const std::vector<votes::Vote> batch = online.PendingVoteList();
    Result<FlushReport> got = online.Flush();
    ReferenceOutcome want = reference.Flush(batch, nullptr);
    ASSERT_TRUE(want.status.ok()) << want.status;
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->changed_clusters, want.changed_clusters);
    ExpectSameGraphWeights(online.graph(), reference.graph());
    ExpectSameSnapshot(*online.snapshot(), reference.snapshot());
  }
  EXPECT_EQ(online.RollbackCount(), 0u);
}

TEST(ValidateWeightUpdateTest, MatchesTheWholeGraphValidatorOnRandomUpdates) {
  // Random updates over a random graph, with and without baseline
  // violations: the update validator's verdict and message equal the
  // whole-graph validator's on the applied graph.
  Rng rng(99);
  Result<WeightedDigraph> base = graph::ScaleFreeWithTargetEdges(60, 240, rng);
  ASSERT_TRUE(base.ok());
  base->NormalizeAllOutWeights();
  GraphValidatorOptions options;
  size_t accepted = 0;
  size_t rejected = 0;
  size_t repaired = 0;
  for (int trial = 0; trial < 300; ++trial) {
    WeightedDigraph before = *base;
    // Sometimes break the baseline: one weight out of bounds, which also
    // pushes its node's sum past 1.
    graph::NodeId broken = graph::kInvalidNode;
    if (rng.NextIndex(3) == 0) {
      const auto e =
          static_cast<graph::EdgeId>(rng.NextIndex(before.NumEdges()));
      before.SetWeight(e, 1.0 + rng.NextDouble());
      broken = before.edge(e).from;
    }
    // Rewrite the out-weights of a few nodes (the broken one half the
    // time, which may repair it): random shares summing to 1, or past 1
    // now and then, with the odd non-finite or out-of-bounds entry.
    std::vector<graph::NodeId> nodes;
    for (int i = 0; i < 3; ++i) {
      nodes.push_back(
          static_cast<graph::NodeId>(rng.NextIndex(before.NumNodes())));
    }
    if (broken != graph::kInvalidNode && rng.NextIndex(2) == 0) {
      nodes.push_back(broken);
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    graph::WeightUpdate update;
    for (graph::NodeId v : nodes) {
      const double total = rng.NextIndex(8) == 0 ? 1.2 : 1.0;
      std::vector<double> shares;
      double sum = 0.0;
      for (size_t i = 0; i < before.OutDegree(v); ++i) {
        shares.push_back(0.05 + rng.NextDouble());
        sum += shares.back();
      }
      for (size_t i = 0; i < before.OutDegree(v); ++i) {
        double w = shares[i] / sum * total;
        const uint64_t pick = rng.NextIndex(40);
        if (pick == 0) w = std::numeric_limits<double>::quiet_NaN();
        if (pick == 1) w = -0.5;
        update.push_back(graph::EdgeWeight{before.OutEdges(v)[i].edge, w});
      }
    }
    std::sort(update.begin(), update.end(),
              [](const graph::EdgeWeight& a, const graph::EdgeWeight& b) {
                return a.edge < b.edge;
              });
    WeightedDigraph after = before;
    after.ApplyWeightUpdate(update);
    const Status want = ValidateGraphUpdate(before, after, options);
    const Status got = ValidateWeightUpdate(
        before, update, options, FindViolations(before, options));
    ExpectSameStatus(got, want);
    (want.ok() ? accepted : rejected) += 1;
    repaired += want.ok() && broken != graph::kInvalidNode ? 1 : 0;
  }
  EXPECT_GT(repaired, 0u);
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(ValidateWeightUpdateTest, RejectsUpdatesNamingMissingOrUnsortedEdges) {
  const WeightedDigraph g = MakeFixture();
  const GraphValidatorOptions options;
  const GraphViolations none;
  EXPECT_TRUE(ValidateWeightUpdate(g, {{7, 0.5}}, options, none)
                  .IsFailedPrecondition());
  EXPECT_TRUE(ValidateWeightUpdate(g, {{1, 0.5}, {1, 0.5}}, options, none)
                  .IsFailedPrecondition());
  EXPECT_TRUE(ValidateWeightUpdate(g, {{2, 0.5}, {1, 0.5}}, options, none)
                  .IsFailedPrecondition());
  EXPECT_TRUE(ValidateWeightUpdate(g, {}, options, none).ok());
}

TEST(CsrWithUpdateTest, PatchedSnapshotEqualsARebuildAndSharesNothingMutable) {
  Rng rng(5);
  Result<WeightedDigraph> g = graph::ScaleFreeWithTargetEdges(80, 320, rng);
  ASSERT_TRUE(g.ok());
  const graph::CsrSnapshot base(*g);
  graph::WeightUpdate update;
  for (graph::EdgeId e = 0; e < g->NumEdges(); e += 3) {
    update.push_back(graph::EdgeWeight{e, rng.NextDouble()});
  }
  const graph::CsrSnapshot patched = base.WithUpdate(update);
  WeightedDigraph updated = *g;
  updated.ApplyWeightUpdate(update);
  ExpectSameSnapshot(patched, graph::CsrSnapshot(updated));
  // The base snapshot still holds the old weights.
  ExpectSameSnapshot(base, graph::CsrSnapshot(*g));
  // Empty update: an identical copy.
  ExpectSameSnapshot(base.WithUpdate({}), base);
}

}  // namespace
}  // namespace kgov::core
