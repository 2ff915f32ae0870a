// Top-k selection (ppr/ranking.h) against a full-sort reference. Every
// ranking path goes through SortRankedTruncate, and the serving oracles
// call the same helper, so only a reference written here can catch a
// selection bug.

#include "ppr/ranking.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace kgov::ppr {
namespace {

// The documented order computed the slow, obvious way: sort everything,
// then keep the first k.
std::vector<ScoredAnswer> FullSortReference(std::vector<ScoredAnswer> all,
                                            size_t k) {
  std::sort(all.begin(), all.end(),
            [](const ScoredAnswer& a, const ScoredAnswer& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.node < b.node;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

void ExpectSameRanking(const std::vector<ScoredAnswer>& got,
                       const std::vector<ScoredAnswer>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
  }
}

std::vector<ScoredAnswer> Select(std::vector<ScoredAnswer> all, size_t k) {
  SortRankedTruncate(&all, k);
  return all;
}

TEST(TopKSelectionTest, TiesBreakByAscendingIdAtTheCut) {
  // Five entries tie at 0.5 across the k = 3 boundary; the survivors must
  // be the lowest ids, in ascending order.
  std::vector<ScoredAnswer> all = {{9, 0.5}, {2, 0.5}, {7, 0.9}, {4, 0.5},
                                   {1, 0.1}, {3, 0.5}, {8, 0.5}};
  for (size_t k = 0; k <= all.size() + 1; ++k) {
    ExpectSameRanking(Select(all, k), FullSortReference(all, k));
  }
  std::vector<ScoredAnswer> top3 = Select(all, 3);
  EXPECT_EQ(top3[0].node, 7u);
  EXPECT_EQ(top3[1].node, 2u);
  EXPECT_EQ(top3[2].node, 3u);
}

TEST(TopKSelectionTest, AllZeroScoresRankByIdOnly) {
  std::vector<ScoredAnswer> all;
  for (graph::NodeId v = 0; v < 200; ++v) {
    all.push_back(ScoredAnswer{(v * 37) % 200, 0.0});
  }
  std::vector<ScoredAnswer> top = Select(all, 10);
  ExpectSameRanking(top, FullSortReference(all, 10));
  for (graph::NodeId i = 0; i < 10; ++i) EXPECT_EQ(top[i].node, i);
}

TEST(TopKSelectionTest, DuplicateCandidatesSurviveAsDuplicates) {
  const std::vector<double> phi = {0.0, 0.3, 0.3, 0.7, 0.0};
  const std::vector<graph::NodeId> candidates = {3, 1, 3, 2, 1, 0, 4, 0};
  for (size_t k = 0; k <= candidates.size() + 2; ++k) {
    StatusOr<std::vector<ScoredAnswer>> top =
        TopKByScore(phi, candidates, k);
    ASSERT_TRUE(top.ok());
    std::vector<ScoredAnswer> all;
    for (graph::NodeId c : candidates) all.push_back({c, phi[c]});
    ExpectSameRanking(*top, FullSortReference(all, k));
  }
}

TEST(TopKSelectionTest, ZeroKAndKAtOrBeyondSize) {
  std::vector<ScoredAnswer> all = {{5, 0.2}, {1, 0.4}, {3, 0.2}};
  EXPECT_TRUE(Select(all, 0).empty());
  ExpectSameRanking(Select(all, 3), FullSortReference(all, 3));
  ExpectSameRanking(Select(all, 100), FullSortReference(all, 100));
  EXPECT_TRUE(Select({}, 0).empty());
  EXPECT_TRUE(Select({}, 4).empty());
}

TEST(TopKSelectionTest, RandomizedSparseScoresMatchFullSort) {
  // The serving shape: thousands of candidates, almost all scoring zero,
  // a top-10 (plus other k, including k >= n).
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 1 + rng.NextIndex(3000);
    std::vector<ScoredAnswer> all;
    all.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const graph::NodeId node =
          static_cast<graph::NodeId>(rng.NextIndex(n + 5));
      double score = 0.0;
      if (rng.NextDouble() < 0.05) {
        // Coarse levels so ties are common among the non-zero scores.
        score = static_cast<double>(1 + rng.NextIndex(8)) / 8.0;
      }
      all.push_back(ScoredAnswer{node, score});
    }
    for (size_t k : {size_t{0}, size_t{1}, size_t{10}, n / 2, n, n + 3}) {
      ExpectSameRanking(Select(all, k), FullSortReference(all, k));
    }
  }
}

TEST(TopKSelectionTest, GenericEntriesUseTheirProjections) {
  std::vector<std::pair<graph::NodeId, double>> all = {
      {4, 0.1}, {2, 0.8}, {6, 0.8}, {1, 0.0}, {3, 0.4}};
  SortRankedTruncate(
      &all, 2, [](const auto& p) { return p.second; },
      [](const auto& p) { return p.first; });
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, 2u);
  EXPECT_EQ(all[1].first, 6u);
}

}  // namespace
}  // namespace kgov::ppr
