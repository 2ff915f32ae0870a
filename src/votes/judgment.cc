#include "votes/judgment.h"

#include <string>
#include <unordered_map>

#include "common/logging.h"
#include "telemetry/metrics.h"

namespace kgov::votes {

Status JudgmentOptions::Validate() const {
  KGOV_RETURN_IF_ERROR(symbolic.Validate());
  if (!(shared_edge_weight > 0.0 && shared_edge_weight < 1.0)) {
    return Status::InvalidArgument(
        "JudgmentOptions.shared_edge_weight must be in (0, 1), got " +
        std::to_string(shared_edge_weight));
  }
  return Status::OK();
}

JudgmentFilter::JudgmentFilter(const graph::WeightedDigraph* graph,
                               graph::GraphView view, JudgmentOptions options)
    : graph_(graph),
      options_(std::move(options)),
      engine_(view, options_.symbolic.eipd) {
  KGOV_CHECK(graph_ != nullptr);
  KGOV_CHECK(view.NumNodes() == graph_->NumNodes() &&
             view.NumEdges() == graph_->NumEdges())
      << "JudgmentFilter view does not match its graph";
  Status valid = options_.Validate();
  KGOV_CHECK(valid.ok()) << valid.ToString();
}

bool JudgmentFilter::IsSatisfiable(const Vote& vote) const {
  if (!vote.IsWellFormed()) return false;
  if (vote.IsPositive()) return true;

  int rank = vote.BestAnswerRank();  // 1-based; >= 2 for negative votes
  KGOV_DCHECK(rank >= 2);
  graph::NodeId best = vote.best_answer;
  graph::NodeId rival = vote.answer_list[rank - 2];  // ranked one above

  // Edge sets of contributing walks to each of the two answers.
  ppr::SymbolicEipd symbolic(graph_, options_.is_variable, options_.symbolic);
  ppr::EdgeVariableMap scratch;
  std::vector<ppr::SymbolicAnswer> answers =
      symbolic.Collect(vote.query, {best, rival}, &scratch);
  const auto& best_edges = answers[0].path_edges;
  const auto& rival_edges = answers[1].path_edges;

  // Extreme condition: favour a* maximally, the rival minimally. Only
  // optimizable edges are reassigned; fixed edges keep their weights.
  auto changeable = [this](graph::EdgeId e) {
    return !options_.is_variable || options_.is_variable(*graph_, e);
  };
  std::unordered_map<graph::EdgeId, double> overrides;
  overrides.reserve(best_edges.size() + rival_edges.size());
  for (graph::EdgeId e : best_edges) {
    if (!changeable(e)) continue;
    overrides[e] = rival_edges.count(e) > 0 ? options_.shared_edge_weight
                                            : 1.0;
  }
  for (graph::EdgeId e : rival_edges) {
    if (!changeable(e)) continue;
    if (best_edges.count(e) == 0) overrides[e] = 0.0;
  }

  StatusOr<std::vector<double>> scores = engine_.ScoresWithOverrides(
      vote.query, {best, rival}, overrides);
  // A query the graph cannot even link is certainly not satisfiable.
  if (!scores.ok()) return false;
  return scores.value()[0] > scores.value()[1];
}

std::vector<Vote> JudgmentFilter::FilterVotes(
    const std::vector<Vote>& votes) const {
  static telemetry::Histogram* const filter_span =
      telemetry::MetricRegistry::Global().GetHistogram(
          "span.judgment.filter.seconds");
  telemetry::ScopedSpan span(filter_span);
  std::vector<Vote> kept;
  kept.reserve(votes.size());
  for (const Vote& vote : votes) {
    if (IsSatisfiable(vote)) {
      kept.push_back(vote);
    } else {
      KGOV_LOG(DEBUG) << "judgment filter discarded vote " << vote.id;
    }
  }
  return kept;
}

}  // namespace kgov::votes
