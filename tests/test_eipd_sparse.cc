// The frontier-tracked EIPD kernel (internal::PropagatePhi) and its
// lazily reset workspace.
//
// Load-bearing contracts, in order of importance:
//   1. With sparse_threshold == 0 the kernel is BITWISE identical to the
//      test-only reference loop (eipd_reference.h; memcmp over the full
//      phi vector), with and without weight overrides.
//   2. With a positive threshold the error is one-sided (pruning only
//      drops non-negative contributions) and bounded by
//      pruned * threshold, so top-k rankings agree whenever score gaps
//      exceed the bound.
//   3. Reusing a workspace (lazy reset of the visited entries, or a full
//      reset after a size change or a flooding query) never leaks state
//      from the previous query.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "ppr/eipd_engine.h"
#include "ppr/query_seed.h"
#include "eipd_reference.h"

namespace kgov::ppr {
namespace {

using graph::CsrSnapshot;
using graph::WeightedDigraph;

bool BitwiseEqualVectors(const std::vector<double>& a,
                         const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// --- Contract 1: bitwise identity at threshold 0 -----------------------

class SparseBitwiseIdentity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SparseBitwiseIdentity, ZeroThresholdMatchesDenseBitwise) {
  Rng rng(GetParam());
  Result<WeightedDigraph> g = graph::ScaleFreeWithTargetEdges(200, 900, rng);
  ASSERT_TRUE(g.ok());
  CsrSnapshot snap(*g);

  for (int length : {1, 3, 5}) {
    EipdOptions options;
    options.max_length = length;
    options.sparse_threshold = 0.0;

    EipdEngine engine(snap.View(), options);
    for (graph::NodeId v = 0; v < 200; v += 37) {
      QuerySeed seed = QuerySeed::FromNode(*g, v);
      if (seed.empty()) continue;
      StatusOr<std::vector<double>> s = engine.Propagate(seed);
      ASSERT_TRUE(s.ok()) << s.status();
      EXPECT_TRUE(
          BitwiseEqualVectors(ReferencePhi(snap.View(), seed, options), *s))
          << "seed " << v << " length " << length
          << ": kernel phi diverged from the reference loop";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseBitwiseIdentity,
                         ::testing::Values(21, 22, 23));

TEST(SparseKernelTest, ZeroThresholdMatchesDenseWithOverrides) {
  Rng rng(31);
  Result<WeightedDigraph> g = graph::ErdosRenyi(60, 300, rng);
  ASSERT_TRUE(g.ok());
  CsrSnapshot snap(*g);

  // Override a handful of edge weights (including one zeroed edge, which
  // the kernel and the reference must skip identically).
  std::unordered_map<graph::EdgeId, double> overrides;
  graph::GraphView view = snap.View();
  const graph::EdgeId* ids = view.edge_ids(0);
  if (ids != nullptr && view.begin(0) != view.end(0)) {
    overrides[ids[0]] = 0.0;
  }
  for (graph::NodeId u = 1; u < 10; ++u) {
    const graph::EdgeId* row = view.edge_ids(u);
    if (row != nullptr && view.begin(u) != view.end(u)) {
      overrides[row[0]] = 0.5;
    }
  }
  ASSERT_FALSE(overrides.empty());

  const EipdOptions options{.sparse_threshold = 0.0};
  EipdEngine engine(snap.View(), options);
  QuerySeed seed = QuerySeed::FromNode(*g, 0);
  if (seed.empty()) GTEST_SKIP();
  StatusOr<std::vector<double>> s =
      engine.PropagateWithOverrides(seed, overrides);
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_TRUE(BitwiseEqualVectors(
      ReferencePhi(snap.View(), seed, options, &overrides), *s));
}

TEST(SparseKernelTest, InternalKernelReportsZeroPrunedAtZeroThreshold) {
  Rng rng(33);
  Result<WeightedDigraph> g = graph::ScaleFreeWithTargetEdges(120, 500, rng);
  ASSERT_TRUE(g.ok());
  CsrSnapshot snap(*g);

  EipdOptions options;
  options.sparse_threshold = 0.0;
  QuerySeed seed = QuerySeed::FromNode(*g, 1);
  if (seed.empty()) GTEST_SKIP();

  PropagationWorkspace ws;
  size_t pruned = internal::PropagatePhi(
      internal::ViewAdjacency{snap.View()}, seed, options, nullptr, &ws);
  EXPECT_EQ(pruned, 0u);
}

// --- Contract 2: bounded one-sided pruning error -----------------------

TEST(SparseKernelTest, PruningErrorIsOneSidedAndBounded) {
  Rng rng(41);
  Result<WeightedDigraph> g = graph::ScaleFreeWithTargetEdges(400, 1800, rng);
  ASSERT_TRUE(g.ok());
  CsrSnapshot snap(*g);

  const double threshold = 1e-4;  // aggressive: forces real pruning
  EipdOptions sparse_opts;
  sparse_opts.sparse_threshold = threshold;

  size_t total_pruned = 0;
  for (graph::NodeId v = 0; v < 400; v += 53) {
    QuerySeed seed = QuerySeed::FromNode(*g, v);
    if (seed.empty()) continue;

    const std::vector<double> exact =
        ReferencePhi(snap.View(), seed, sparse_opts);

    PropagationWorkspace ws;
    size_t pruned = internal::PropagatePhi(
        internal::ViewAdjacency{snap.View()}, seed, sparse_opts, nullptr,
        &ws);
    total_pruned += pruned;

    // Each pruned (node, level) drops < threshold of walk mass, and a
    // unit of walk mass contributes at most (1 - c) of itself to any
    // phi entry downstream - the documented bound, relaxed here to the
    // loose-but-safe pruned * threshold.
    const double bound =
        static_cast<double>(pruned) * threshold + 1e-12;
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_LE(ws.phi[i], exact[i] + 1e-12)
          << "pruning must only underestimate (node " << i << ")";
      EXPECT_LE(exact[i] - ws.phi[i], bound)
          << "pruning error exceeded the documented bound (node " << i
          << ")";
    }
  }
  EXPECT_GT(total_pruned, 0u)
      << "threshold 1e-4 on a 400-node scale-free graph should prune; "
         "the bound check above was vacuous";
}

TEST(SparseKernelTest, TopKAgreesWithDenseAtModerateThreshold) {
  Rng rng(43);
  Result<WeightedDigraph> g = graph::ScaleFreeWithTargetEdges(300, 1400, rng);
  ASSERT_TRUE(g.ok());
  CsrSnapshot snap(*g);

  std::vector<graph::NodeId> candidates;
  for (graph::NodeId v = 0; v < 300; v += 7) candidates.push_back(v);

  EipdEngine exact(snap.View(), {.sparse_threshold = 0.0});
  EipdEngine sparse(snap.View(), {.sparse_threshold = 1e-12});

  for (graph::NodeId v : {2, 29, 61, 107}) {
    QuerySeed seed = QuerySeed::FromNode(*g, v);
    if (seed.empty()) continue;
    StatusOr<std::vector<ScoredAnswer>> e = exact.Rank(seed, candidates, 10);
    StatusOr<std::vector<ScoredAnswer>> s = sparse.Rank(seed, candidates, 10);
    ASSERT_TRUE(e.ok());
    ASSERT_TRUE(s.ok());
    ASSERT_EQ(e->size(), s->size());
    for (size_t i = 0; i < e->size(); ++i) {
      EXPECT_EQ((*e)[i].node, (*s)[i].node) << "rank " << i;
      EXPECT_NEAR((*e)[i].score, (*s)[i].score, 1e-9) << "rank " << i;
    }
  }
}

TEST(KernelResolutionTest, OptionsValidateRejectsBadThreshold) {
  EipdOptions options;
  options.sparse_threshold = -1.0;
  EXPECT_FALSE(options.Validate().ok());
  options.sparse_threshold = 0.0;
  EXPECT_TRUE(options.Validate().ok());
}

// --- Contract 3: workspace reuse / lazy-reset correctness ---------------

TEST(SparseWorkspaceTest, ConsecutiveSparseQueriesLazyResetCorrectly) {
  // A dense graph, where walks flood it and Reset refills everything, and
  // a sparse one, where walks stay local and Reset zeroes only the
  // visited entries. Both branches must leave no stale state.
  Rng rng(61);
  Result<WeightedDigraph> dense =
      graph::ScaleFreeWithTargetEdges(150, 700, rng);
  Result<WeightedDigraph> sparse = graph::ErdosRenyi(3000, 3000, rng);
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(sparse.ok());
  for (const WeightedDigraph* g : {&*dense, &*sparse}) {
    CsrSnapshot snap(*g);
    EipdEngine engine(snap.View());
    const size_t n = g->NumNodes();
    size_t lazy_resets = 0;
    PropagationWorkspace shared;
    for (graph::NodeId v = 0; v < n; v += 13) {
      QuerySeed seed = QuerySeed::FromNode(*g, v);
      if (seed.empty()) continue;
      // The condition under which this query's Reset stays lazy.
      if (shared.phi.size() == n && shared.visited.size() <= n / 16) {
        ++lazy_resets;
      }
      StatusOr<std::vector<double>> reused = engine.Propagate(seed, &shared);
      PropagationWorkspace fresh;
      StatusOr<std::vector<double>> clean = engine.Propagate(seed, &fresh);
      ASSERT_TRUE(reused.ok());
      ASSERT_TRUE(clean.ok());
      EXPECT_TRUE(BitwiseEqualVectors(*reused, *clean))
          << "reset left stale state behind (n " << n << ", seed " << v
          << ")";
    }
    if (g == &*sparse) {
      EXPECT_GT(lazy_resets, 0u) << "the sparse graph never took the lazy "
                                    "reset; the check above was vacuous";
    }
  }
}

TEST(SparseWorkspaceTest, ResizeAcrossGraphsFallsBackToFullReset) {
  Rng rng(71);
  Result<WeightedDigraph> small = graph::ErdosRenyi(40, 200, rng);
  Result<WeightedDigraph> large = graph::ErdosRenyi(90, 500, rng);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  CsrSnapshot small_snap(*small);
  CsrSnapshot large_snap(*large);

  EipdEngine on_small(small_snap.View());
  EipdEngine on_large(large_snap.View());

  QuerySeed small_seed = QuerySeed::FromNode(*small, 1);
  QuerySeed large_seed = QuerySeed::FromNode(*large, 1);
  if (small_seed.empty() || large_seed.empty()) GTEST_SKIP();

  PropagationWorkspace shared;
  ASSERT_TRUE(on_small.Propagate(small_seed, &shared).ok());
  StatusOr<std::vector<double>> grown =
      on_large.Propagate(large_seed, &shared);
  StatusOr<std::vector<double>> clean = on_large.Propagate(large_seed);
  ASSERT_TRUE(grown.ok());
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(BitwiseEqualVectors(*grown, *clean));

  // Shrink back down again: size mismatch must trigger the full reset.
  StatusOr<std::vector<double>> shrunk =
      on_small.Propagate(small_seed, &shared);
  StatusOr<std::vector<double>> small_clean =
      on_small.Propagate(small_seed);
  ASSERT_TRUE(shrunk.ok());
  ASSERT_TRUE(small_clean.ok());
  EXPECT_TRUE(BitwiseEqualVectors(*shrunk, *small_clean));
}

}  // namespace
}  // namespace kgov::ppr
