// Judgment filter for erroneous votes (paper SV).
//
// A negative vote is unsatisfiable when no assignment of edge weights can
// rank its best answer above the competitor directly above it. The paper
// tests an *extreme condition*: collect the edge sets of all (<= L)-length
// walks to the best answer a* and to the answer ranked immediately above
// it, then evaluate the two similarities with
//   - shared edges set to a constant in (0, 1),
//   - edges exclusive to a*'s walks set to 1,
//   - edges exclusive to the competitor's walks set to 0.
// If even under this maximally favourable weighting S(vq, a*) cannot exceed
// S(vq, a_{rank-1}), the vote is discarded before SGP encoding.

#ifndef KGOV_VOTES_JUDGMENT_H_
#define KGOV_VOTES_JUDGMENT_H_

#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "ppr/eipd_engine.h"
#include "ppr/symbolic_eipd.h"
#include "votes/vote.h"

namespace kgov::votes {

struct JudgmentOptions {
  ppr::SymbolicEipdOptions symbolic;
  /// Which edges the optimizer may change; fixed edges keep their weight in
  /// the extreme condition (null = all edges changeable).
  ppr::SymbolicEipd::VariablePredicate is_variable;
  /// The constant assigned to shared edges (any value in (0,1) works; the
  /// paper leaves it unspecified).
  double shared_edge_weight = 0.5;

  /// Checks this struct and the nested SymbolicEipdOptions.
  Status Validate() const;
};

class JudgmentFilter {
 public:
  /// `graph` and `view` are borrowed and must outlive the filter. `view`
  /// is a frozen CSR view of `graph` with edge ids and identical weights
  /// (a graph::CsrSnapshot of it, or the serving epoch's view): the filter
  /// collects walks on `graph` and evaluates the extreme condition on the
  /// unified EipdEngine over `view`.
  JudgmentFilter(const graph::WeightedDigraph* graph, graph::GraphView view,
                 JudgmentOptions options);

  /// True when the vote can in principle be satisfied (positive votes are
  /// trivially satisfiable; negative votes run the extreme-condition test).
  bool IsSatisfiable(const Vote& vote) const;

  /// Filters `votes`, keeping satisfiable ones (order preserved).
  std::vector<Vote> FilterVotes(const std::vector<Vote>& votes) const;

 private:
  const graph::WeightedDigraph* graph_;
  JudgmentOptions options_;
  ppr::EipdEngine engine_;
};

}  // namespace kgov::votes

#endif  // KGOV_VOTES_JUDGMENT_H_
