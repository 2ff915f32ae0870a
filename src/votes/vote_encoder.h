// Encoding user votes as SGP constraint functions (paper SIV-B, SV).
//
// For a negative vote with best answer a*, every other listed answer a
// yields the constraint S(vq, a) - S(vq, a*) < 0 (Eq. 11); for a positive
// vote the top answer a1 plays the role of a* (Eq. 13). The similarities
// are symbolic extended inverse P-distances over the edge-weight variables
// (signomials), so each vote contributes k-1 signomial constraints.

#ifndef KGOV_VOTES_VOTE_ENCODER_H_
#define KGOV_VOTES_VOTE_ENCODER_H_

#include <functional>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "math/sgp_problem.h"
#include "ppr/edge_vars.h"
#include "ppr/symbolic_eipd.h"
#include "votes/vote.h"

namespace kgov::votes {

struct EncoderOptions {
  ppr::SymbolicEipdOptions symbolic;
  /// Decides which edges are optimization variables (null = all edges).
  /// An edge that is its source node's only out-edge is never a variable,
  /// whatever this says: its weight is normalization-invariant (Alg. 1's
  /// NormalizeEdges rescales it straight back to 1), so letting the solver
  /// spend slack on it would silently undo the optimization.
  ppr::SymbolicEipd::VariablePredicate is_variable;
  /// Box bounds for edge-weight variables (paper Eq. 2: 0 < xl <= x <= xu).
  double weight_lower_bound = 1e-4;
  double weight_upper_bound = 1.0;

  /// Checks this struct and the nested SymbolicEipdOptions (positive box
  /// bounds with lower <= upper, per paper Eq. 2).
  Status Validate() const;
};

/// An encoded program plus the edge<->variable mapping needed to write the
/// solution back into the graph.
struct EncodedProgram {
  math::SgpProblem problem;
  ppr::EdgeVariableMap variables;
  /// Edges associated with each encoded vote, E(t) in Eq. 20 (union of
  /// path edges over the vote's answer list), aligned with the encoded
  /// votes' order.
  std::vector<std::unordered_set<graph::EdgeId>> vote_edges;
  /// Ids of the votes actually encoded (well-formed ones), in order.
  std::vector<uint32_t> encoded_vote_ids;
};

class VoteEncoder {
 public:
  /// `graph` is borrowed and must outlive the encoder.
  VoteEncoder(const graph::WeightedDigraph* graph, EncoderOptions options);

  /// Encodes a single negative vote (the single-vote solution considers
  /// only negative votes, SIV-B). Fails on malformed or positive votes.
  Result<EncodedProgram> EncodeSingle(const Vote& vote) const;

  /// Encodes a batch of votes (negative and positive) into one program
  /// (SV). Malformed votes are skipped.
  Result<EncodedProgram> EncodeBatch(const std::vector<Vote>& votes) const;

  /// Returns E(t): the union of edges on contributing walks from the
  /// vote's query to any of its listed answers. Used for vote similarity
  /// (Eq. 20) without building a full program.
  std::unordered_set<graph::EdgeId> AssociatedEdges(const Vote& vote) const;

 private:
  /// The user predicate composed with the degree-1 exclusion.
  ppr::SymbolicEipd::VariablePredicate EffectivePredicate() const;

  const graph::WeightedDigraph* graph_;
  EncoderOptions options_;
};

}  // namespace kgov::votes

#endif  // KGOV_VOTES_VOTE_ENCODER_H_
