// Shared answer-ranking helpers: the one top-k sort used by every ranking
// path (EIPD engine, the compatibility evaluators, and the Q&A baselines).
// Rankings are deterministic: descending score, ties broken by ascending
// id, truncated to k.

#ifndef KGOV_PPR_RANKING_H_
#define KGOV_PPR_RANKING_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace kgov::ppr {

/// A ranked answer.
struct ScoredAnswer {
  graph::NodeId node = graph::kInvalidNode;
  double score = 0.0;
};

/// Sorts `entries` by descending score with ties broken by ascending id
/// and truncates to the top k. `score_of` / `id_of` project an entry to
/// its score and its tie-break id. When k < size only the k survivors are
/// sorted (heap selection, O(n log k)): serving ranks thousands of
/// candidates for a top-10, and a full sort was most of the rank time.
template <typename Entry, typename ScoreFn, typename IdFn>
void SortRankedTruncate(std::vector<Entry>* entries, size_t k,
                        ScoreFn score_of, IdFn id_of) {
  auto ranks_before = [&](const Entry& a, const Entry& b) {
    const double sa = score_of(a);
    const double sb = score_of(b);
    if (sa != sb) return sa > sb;
    return id_of(a) < id_of(b);
  };
  if (k < entries->size()) {
    std::partial_sort(entries->begin(),
                      entries->begin() + static_cast<ptrdiff_t>(k),
                      entries->end(), ranks_before);
    entries->resize(k);
  } else {
    std::sort(entries->begin(), entries->end(), ranks_before);
  }
}

/// The common case: rank ScoredAnswers by score, ties by node id.
inline void SortRankedTruncate(std::vector<ScoredAnswer>* entries,
                               size_t k) {
  SortRankedTruncate(
      entries, k, [](const ScoredAnswer& a) { return a.score; },
      [](const ScoredAnswer& a) { return a.node; });
}

/// Public top-k entry point: ranks `candidates` by their scores in `phi`
/// (a full per-node score vector, e.g. a propagation result), descending,
/// ties by ascending node id, truncated to k. Returns InvalidArgument
/// naming the offending candidate when one is outside [0, phi.size()).
inline StatusOr<std::vector<ScoredAnswer>> TopKByScore(
    const std::vector<double>& phi,
    const std::vector<graph::NodeId>& candidates, size_t k) {
  std::vector<ScoredAnswer> ranked(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const graph::NodeId node = candidates[i];
    if (node >= phi.size()) {
      return Status::InvalidArgument(
          "candidates[" + std::to_string(i) + "] = " + std::to_string(node) +
          " is outside the scored node range [0, " +
          std::to_string(phi.size()) + ")");
    }
    ranked[i] = ScoredAnswer{node, phi[node]};
  }
  SortRankedTruncate(&ranked, k);
  return ranked;
}

}  // namespace kgov::ppr

#endif  // KGOV_PPR_RANKING_H_
