#include "votes/vote_encoder.h"

#include <string>
#include <utility>

#include "common/logging.h"
#include "math/signomial.h"
#include <cmath>

namespace kgov::votes {


Status EncoderOptions::Validate() const {
  KGOV_RETURN_IF_ERROR(symbolic.Validate());
  if (!(weight_lower_bound > 0.0) || !std::isfinite(weight_lower_bound)) {
    return Status::InvalidArgument(
        "EncoderOptions.weight_lower_bound must be finite and > 0 "
        "(paper Eq. 2: 0 < xl), got " +
        std::to_string(weight_lower_bound));
  }
  if (!(weight_upper_bound >= weight_lower_bound) ||
      !std::isfinite(weight_upper_bound)) {
    return Status::InvalidArgument(
        "EncoderOptions.weight_upper_bound must be finite and >= "
        "weight_lower_bound, got " + std::to_string(weight_upper_bound));
  }
  return Status::OK();
}

VoteEncoder::VoteEncoder(const graph::WeightedDigraph* graph,
                         EncoderOptions options)
    : graph_(graph), options_(std::move(options)) {
  KGOV_CHECK(graph_ != nullptr);
  Status valid = options_.Validate();
  KGOV_CHECK(valid.ok()) << valid.ToString();
}

Result<EncodedProgram> VoteEncoder::EncodeSingle(const Vote& vote) const {
  if (!vote.IsWellFormed()) {
    return Status::InvalidArgument("vote " + std::to_string(vote.id) +
                                   " is malformed");
  }
  if (vote.IsPositive()) {
    return Status::InvalidArgument(
        "single-vote encoding only accepts negative votes (SIV-B)");
  }
  return EncodeBatch({vote});
}

ppr::SymbolicEipd::VariablePredicate VoteEncoder::EffectivePredicate()
    const {
  ppr::SymbolicEipd::VariablePredicate base = options_.is_variable;
  return [base](const graph::WeightedDigraph& g, graph::EdgeId e) {
    if (g.OutDegree(g.edge(e).from) <= 1) return false;
    return !base || base(g, e);
  };
}

Result<EncodedProgram> VoteEncoder::EncodeBatch(
    const std::vector<Vote>& votes) const {
  EncodedProgram program;
  ppr::SymbolicEipd symbolic(graph_, EffectivePredicate(), options_.symbolic);

  struct PendingConstraint {
    math::Signomial g;
    std::string label;
    double weight = 1.0;
  };
  std::vector<PendingConstraint> pending;

  for (const Vote& vote : votes) {
    if (!vote.IsWellFormed()) {
      KGOV_LOG(DEBUG) << "skipping malformed vote " << vote.id;
      continue;
    }
    std::vector<ppr::SymbolicAnswer> answers =
        symbolic.Collect(vote.query, vote.answer_list, &program.variables);

    // The reference answer: user's pick for negative votes, the confirmed
    // top answer for positive votes (they coincide for positive votes).
    int best_idx = vote.BestAnswerRank() - 1;
    KGOV_DCHECK(best_idx >= 0);
    const math::Signomial& best_similarity = answers[best_idx].similarity;

    std::unordered_set<graph::EdgeId> edges;
    for (size_t i = 0; i < answers.size(); ++i) {
      edges.insert(answers[i].path_edges.begin(),
                   answers[i].path_edges.end());
      if (static_cast<int>(i) == best_idx) continue;
      // g = S(vq, a_i) - S(vq, a*) ; require g < 0 (Eq. 11 / Eq. 13).
      math::Signomial g =
          math::Signomial::Difference(answers[i].similarity, best_similarity);
      std::string label = "vote" + std::to_string(vote.id) + ":a" +
                          std::to_string(vote.answer_list[i]) + "<a" +
                          std::to_string(vote.best_answer);
      pending.push_back(
          PendingConstraint{std::move(g), std::move(label), vote.weight});
    }
    program.vote_edges.push_back(std::move(edges));
    program.encoded_vote_ids.push_back(vote.id);
  }

  if (program.encoded_vote_ids.empty()) {
    return Status::InvalidArgument("no well-formed votes to encode");
  }

  // Declare variables (initialized from the current graph weights,
  // Alg. 1 lines 5-8), then attach the constraints.
  for (graph::EdgeId edge : program.variables.variables()) {
    double w = graph_->Weight(edge);
    double lo = options_.weight_lower_bound;
    double hi = options_.weight_upper_bound;
    // Keep the initial point inside the box even if the current weight
    // strays outside (e.g. a zero-weight edge).
    double initial = std::min(std::max(w, lo), hi);
    program.problem.AddVariable(initial, lo, hi);
  }
  for (PendingConstraint& constraint : pending) {
    program.problem.AddConstraint(std::move(constraint.g),
                                  std::move(constraint.label),
                                  constraint.weight);
  }
  return program;
}

std::unordered_set<graph::EdgeId> VoteEncoder::AssociatedEdges(
    const Vote& vote) const {
  ppr::SymbolicEipd symbolic(graph_, EffectivePredicate(), options_.symbolic);
  ppr::EdgeVariableMap scratch;
  std::unordered_set<graph::EdgeId> edges;
  if (!vote.IsWellFormed()) return edges;
  std::vector<ppr::SymbolicAnswer> answers =
      symbolic.Collect(vote.query, vote.answer_list, &scratch);
  for (const ppr::SymbolicAnswer& answer : answers) {
    edges.insert(answer.path_edges.begin(), answer.path_edges.end());
  }
  return edges;
}

}  // namespace kgov::votes
