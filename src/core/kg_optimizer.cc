#include "core/kg_optimizer.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_set>
#include <utility>

#include "cluster/vote_similarity.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "graph/csr.h"
#include "graph/subgraph.h"
#include "ppr/eipd_engine.h"
#include "telemetry/metrics.h"

namespace kgov::core {

namespace {

// Split-and-merge stage telemetry; pointers resolved once.
struct SplitMergeMetrics {
  telemetry::Counter* solves;
  telemetry::Counter* clusters;
  telemetry::Counter* failed_clusters;
  telemetry::Counter* quarantined_votes;
  telemetry::Counter* votes_verified;
  telemetry::Counter* votes_satisfied;
  telemetry::Histogram* split_span;
  telemetry::Histogram* solve_span;
  telemetry::Histogram* cluster_span;
  telemetry::Histogram* verify_span;
  telemetry::Histogram* merge_span;

  static const SplitMergeMetrics& Get() {
    static const SplitMergeMetrics m = [] {
      telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Global();
      return SplitMergeMetrics{
          reg.GetCounter("split_merge.solves"),
          reg.GetCounter("split_merge.clusters"),
          reg.GetCounter("split_merge.failed_clusters"),
          reg.GetCounter("split_merge.quarantined_votes"),
          reg.GetCounter("split_merge.votes_verified"),
          reg.GetCounter("split_merge.votes_satisfied"),
          reg.GetHistogram("span.split_merge.split.seconds"),
          reg.GetHistogram("span.split_merge.solve.seconds"),
          reg.GetHistogram("span.split_merge.cluster.seconds"),
          reg.GetHistogram("span.split_merge.verify.seconds"),
          reg.GetHistogram("span.split_merge.merge.seconds")};
    }();
    return m;
  }
};

// Accumulates per-variable deltas into `changes`, keyed by edge: the
// difference between the value ApplyValues is about to write and the
// weight currently in `graph`. Diff against the graph, NOT
// problem.initial(): the encoder clamps its initial point into the
// variable box, so a solution that "did not move" can still write a
// clamped value over an out-of-box weight - a real bitwise change that
// must be recorded (and its source renormalized) like any other. Call
// before ApplyValues.
void RecordDeltas(const ppr::EdgeVariableMap& vars,
                  const graph::WeightedDigraph& graph,
                  const std::vector<double>& solution,
                  std::unordered_map<graph::EdgeId, double>* changes) {
  for (size_t v = 0; v < vars.NumVariables(); ++v) {
    const graph::EdgeId edge = vars.EdgeOf(static_cast<math::VarId>(v));
    const double delta = solution[v] - graph.Weight(edge);
    if (delta != 0.0) {
      (*changes)[edge] += delta;
    }
  }
}

// The weights a solve writes, kept as a sparse overlay on the borrowed
// input graph instead of a copy of it. SetWeight and NormalizeOutWeights
// follow WeightedDigraph's float paths exactly (same clamp, same left-fold
// sum in out-edge order, same division), so Update() carries the bits a
// copied-and-mutated graph would hold.
class WeightOverlay {
 public:
  explicit WeightOverlay(const graph::WeightedDigraph& base) : base_(base) {}

  double Weight(graph::EdgeId e) const {
    auto it = written_.find(e);
    return it == written_.end() ? base_.Weight(e) : it->second;
  }

  void SetWeight(graph::EdgeId e, double weight) {
    written_[e] = std::max(weight, 0.0);
  }

  void NormalizeOutWeights(graph::NodeId node) {
    double sum = 0.0;
    for (const graph::OutEdge& out : base_.OutEdges(node)) {
      sum += Weight(out.edge);
    }
    if (sum <= 0.0) return;
    for (const graph::OutEdge& out : base_.OutEdges(node)) {
      written_[out.edge] = Weight(out.edge) / sum;
    }
  }

  /// Every written edge whose bits differ from the base, sorted by id.
  graph::WeightUpdate Update() const {
    graph::WeightUpdate update;
    update.reserve(written_.size());
    for (const auto& [edge, weight] : written_) {
      const double before = base_.Weight(edge);
      if (std::memcmp(&before, &weight, sizeof(double)) != 0) {
        update.push_back(graph::EdgeWeight{edge, weight});
      }
    }
    std::sort(update.begin(), update.end(),
              [](const graph::EdgeWeight& a, const graph::EdgeWeight& b) {
                return a.edge < b.edge;
              });
    return update;
  }

 private:
  const graph::WeightedDigraph& base_;
  std::unordered_map<graph::EdgeId, double> written_;
};

// Renormalizes only the out-weight lists the update touched (the source
// nodes of edges whose weight moved). Untouched nodes keep their exact bit
// patterns - the invariant the streaming epoch diff and selective cache
// invalidation are built on. A whole-graph renormalize would divide every
// node's weights by a sum that equals 1.0 only up to rounding, perturbing
// the entire graph by an ulp and marking every cluster changed on every
// flush. Normalization-per-touched-node is inductively equivalent: the
// initial graph arrives normalized, and a node's sum only drifts when one
// of its out-edges is updated - exactly when it is renormalized here.
// `weights` is a WeightedDigraph or a WeightOverlay over `topology`.
template <typename Weights>
void NormalizeTouchedSources(
    const std::unordered_map<graph::EdgeId, double>& changes,
    const graph::WeightedDigraph& topology, Weights* weights) {
  std::unordered_set<graph::NodeId> sources;
  sources.reserve(changes.size());
  for (const auto& [edge, delta] : changes) {
    sources.insert(topology.edge(edge).from);
  }
  for (graph::NodeId node : sources) weights->NormalizeOutWeights(node);
}

}  // namespace

Status OptimizerOptions::Validate() const {
  KGOV_RETURN_IF_ERROR(encoder.symbolic.eipd.Validate());
  KGOV_RETURN_IF_ERROR(sgp.Validate());
  if (encoder.weight_lower_bound <= 0.0) {
    return Status::InvalidArgument(
        "OptimizerOptions.encoder.weight_lower_bound must be > 0");
  }
  if (encoder.weight_upper_bound < encoder.weight_lower_bound) {
    return Status::InvalidArgument(
        "OptimizerOptions.encoder.weight_upper_bound must be >= "
        "weight_lower_bound");
  }
  if (judgment_shared_weight <= 0.0 || judgment_shared_weight >= 1.0) {
    return Status::InvalidArgument(
        "OptimizerOptions.judgment_shared_weight must be in (0, 1)");
  }
  if (single_vote_refine_rounds < 1) {
    return Status::InvalidArgument(
        "OptimizerOptions.single_vote_refine_rounds must be >= 1");
  }
  if (ap.damping < 0.5 || ap.damping >= 1.0) {
    return Status::InvalidArgument(
        "OptimizerOptions.ap.damping must be in [0.5, 1)");
  }
  if (ap.max_iterations < 1) {
    return Status::InvalidArgument(
        "OptimizerOptions.ap.max_iterations must be >= 1");
  }
  if (retry.max_attempts < 1) {
    return Status::InvalidArgument(
        "OptimizerOptions.retry.max_attempts must be >= 1");
  }
  return Status::OK();
}

KgOptimizer::KgOptimizer(const graph::WeightedDigraph* graph,
                         OptimizerOptions options, graph::GraphView view)
    : graph_(graph),
      options_(std::move(options)),
      view_(view),
      options_status_(options_.Validate()) {
  KGOV_CHECK(graph_ != nullptr);
  KGOV_CHECK(!view_.HasEdgeIds() ||
             (view_.NumNodes() == graph_->NumNodes() &&
              view_.NumEdges() == graph_->NumEdges()))
      << "KgOptimizer view does not match its graph";
}

graph::GraphView KgOptimizer::SolveView(
    std::unique_ptr<graph::CsrSnapshot>* owned) const {
  if (view_.HasEdgeIds()) return view_;
  *owned = std::make_unique<graph::CsrSnapshot>(*graph_);
  return (*owned)->View();
}

std::vector<votes::Vote> KgOptimizer::Filter(
    const std::vector<votes::Vote>& votes, graph::GraphView view) const {
  if (!options_.apply_judgment_filter) {
    std::vector<votes::Vote> kept;
    kept.reserve(votes.size());
    for (const votes::Vote& vote : votes) {
      if (vote.IsWellFormed()) kept.push_back(vote);
    }
    return kept;
  }
  votes::JudgmentOptions judgment;
  judgment.symbolic = options_.encoder.symbolic;
  judgment.is_variable = options_.encoder.is_variable;
  judgment.shared_edge_weight = options_.judgment_shared_weight;
  votes::JudgmentFilter filter(graph_, view, std::move(judgment));
  return filter.FilterVotes(votes);
}

Result<OptimizeReport> KgOptimizer::SingleVoteSolve(
    const std::vector<votes::Vote>& votes) const {
  KGOV_RETURN_IF_ERROR(options_status_);
  OptimizeReport report;
  report.votes_in = votes.size();
  // The greedy loop re-encodes against its own result after every vote,
  // so it works on a copy (offline only; the online loop never runs it).
  graph::WeightedDigraph current = *graph_;

  math::SgpSolverOptions sgp = options_.sgp;
  sgp.formulation = math::SgpFormulation::kHardConstraints;
  math::SgpSolver solver(sgp);

  Timer timer;
  const int rounds = std::max(1, options_.single_vote_refine_rounds);
  for (const votes::Vote& vote : votes) {
    if (!vote.IsWellFormed() || vote.IsPositive()) continue;

    bool encoded_any = false;
    for (int round = 0; round < rounds; ++round) {
      timer.Restart();
      // Encode against the *current* graph: the greedy algorithm folds
      // each vote's result into the graph before the next (Alg. 1), and
      // refinement rounds see the effect of normalization.
      votes::VoteEncoder encoder(&current, options_.encoder);
      Result<votes::EncodedProgram> encoded = encoder.EncodeSingle(vote);
      report.encode_seconds += timer.ElapsedSeconds();
      if (!encoded.ok()) {
        KGOV_LOG(DEBUG) << "vote " << vote.id
                        << " not encodable: " << encoded.status();
        break;
      }
      votes::EncodedProgram& program = encoded.value();

      timer.Restart();
      math::SgpSolution solution = solver.Solve(program.problem);
      report.solve_seconds += timer.ElapsedSeconds();
      // A greedy baseline applies the solver's point even when full
      // feasibility was not reached (fmincon behaves the same way).
      std::unordered_map<graph::EdgeId, double> round_changes;
      RecordDeltas(program.variables, current, solution.x, &round_changes);
      for (const auto& [edge, delta] : round_changes) {
        report.weight_changes[edge] += delta;
      }
      program.variables.ApplyValues(solution.x, &current);
      // Re-normalize the touched out-weights (Alg. 1 line 16).
      NormalizeTouchedSources(round_changes, current, &current);
      if (!encoded_any) {
        report.constraints_total += solution.total_constraints;
        ++report.votes_encoded;
        encoded_any = true;
      }

      // Refinement check: is the voted best answer ranked first now? The
      // engine wants a frozen view; one CSR build per refine round is
      // noise next to the SGP solve that preceded it.
      graph::CsrSnapshot refine_snapshot(current);
      ppr::EipdEngine evaluator(refine_snapshot.View(),
                                options_.encoder.symbolic.eipd);
      StatusOr<std::vector<ppr::ScoredAnswer>> reranked_or = evaluator.Rank(
          vote.query, vote.answer_list, vote.answer_list.size());
      std::vector<ppr::ScoredAnswer> reranked =
          reranked_or.ok() ? std::move(reranked_or).value()
                           : std::vector<ppr::ScoredAnswer>{};
      if (!reranked.empty() && reranked.front().node == vote.best_answer) {
        report.constraints_satisfied += solution.total_constraints;
        break;
      }
      if (round + 1 == rounds) {
        report.constraints_satisfied += solution.satisfied_constraints;
      }
    }
  }
  report.votes_after_filter = report.votes_encoded;
  report.update = graph::DiffWeights(*graph_, current);
  return report;
}

Result<OptimizeReport> KgOptimizer::MultiVoteSolve(
    const std::vector<votes::Vote>& votes) const {
  KGOV_RETURN_IF_ERROR(options_status_);
  OptimizeReport report;
  report.votes_in = votes.size();

  Timer timer;
  std::unique_ptr<graph::CsrSnapshot> owned_snapshot;
  const graph::GraphView view = options_.apply_judgment_filter
                                    ? SolveView(&owned_snapshot)
                                    : graph::GraphView{};
  std::vector<votes::Vote> filtered = Filter(votes, view);
  report.votes_after_filter = filtered.size();
  if (filtered.empty()) {
    return Status::InvalidArgument("no votes survive filtering");
  }

  votes::VoteEncoder encoder(graph_, options_.encoder);
  Result<votes::EncodedProgram> encoded = encoder.EncodeBatch(filtered);
  KGOV_RETURN_IF_ERROR(encoded.status());
  votes::EncodedProgram& program = encoded.value();
  report.votes_encoded = program.encoded_vote_ids.size();
  report.encode_seconds = timer.ElapsedSeconds();

  timer.Restart();
  ResilientSgpSolver solver(options_.sgp, options_.retry);
  ResilientSolveOutcome outcome = solver.Solve(program.problem);
  math::SgpSolution& solution = outcome.solution;
  report.solve_seconds = timer.ElapsedSeconds();
  report.solve_attempts = outcome.attempts.size();

  RecordDeltas(program.variables, *graph_, solution.x,
               &report.weight_changes);
  WeightOverlay optimized(*graph_);
  for (size_t v = 0; v < program.variables.NumVariables(); ++v) {
    optimized.SetWeight(program.variables.EdgeOf(static_cast<math::VarId>(v)),
                        solution.x[v]);
  }
  NormalizeTouchedSources(report.weight_changes, *graph_, &optimized);
  report.update = optimized.Update();
  report.constraints_total = solution.total_constraints;
  report.constraints_satisfied = solution.satisfied_constraints;
  return report;
}

Result<OptimizeReport> KgOptimizer::SplitMergeSolve(
    const std::vector<votes::Vote>& votes) const {
  return SplitMergeImpl(votes, nullptr);
}

namespace {

// Options identical to `base` except that the encoder's variable set is
// narrowed to edges satisfying both the original predicate and `scope`.
// The judgment filter inherits encoder.is_variable, so filtering sees the
// same narrowed scope the solve does.
OptimizerOptions NarrowToScope(const OptimizerOptions& base,
                               ppr::SymbolicEipd::VariablePredicate scope) {
  OptimizerOptions scoped = base;
  if (base.encoder.is_variable) {
    scoped.encoder.is_variable =
        [outer = base.encoder.is_variable, scope = std::move(scope)](
            const graph::WeightedDigraph& g, graph::EdgeId e) {
          return outer(g, e) && scope(g, e);
        };
  } else {
    scoped.encoder.is_variable = std::move(scope);
  }
  return scoped;
}

}  // namespace

Result<OptimizeReport> KgOptimizer::MultiVoteSolveScoped(
    const std::vector<votes::Vote>& votes,
    ppr::SymbolicEipd::VariablePredicate scope) const {
  KGOV_RETURN_IF_ERROR(options_status_);
  if (!scope) return MultiVoteSolve(votes);
  KgOptimizer scoped(graph_, NarrowToScope(options_, std::move(scope)),
                     view_);
  return scoped.MultiVoteSolve(votes);
}

Result<OptimizeReport> KgOptimizer::SplitMergeSolveScoped(
    const std::vector<votes::Vote>& votes,
    ppr::SymbolicEipd::VariablePredicate scope) const {
  KGOV_RETURN_IF_ERROR(options_status_);
  if (!scope) return SplitMergeSolve(votes);
  KgOptimizer scoped(graph_, NarrowToScope(options_, std::move(scope)),
                     view_);
  return scoped.SplitMergeImpl(votes, nullptr);
}

Result<OptimizeReport> KgOptimizer::DistributedSplitMergeSolve(
    const std::vector<votes::Vote>& votes, ThreadPool* pool) const {
  if (pool == nullptr) {
    return Status::InvalidArgument(
        "DistributedSplitMergeSolve requires a thread pool");
  }
  return SplitMergeImpl(votes, pool);
}

Result<OptimizeReport> KgOptimizer::SplitMergeImpl(
    const std::vector<votes::Vote>& votes, ThreadPool* pool) const {
  KGOV_RETURN_IF_ERROR(options_status_);
  const SplitMergeMetrics& metrics = SplitMergeMetrics::Get();
  metrics.solves->Increment();
  OptimizeReport report;
  report.votes_in = votes.size();

  Timer timer;
  // One CSR view shared by the judgment filter and every cluster's
  // verification: each verification builds a zero-copy induced sub-view
  // over it instead of materializing a per-cluster WeightedDigraph.
  std::unique_ptr<graph::CsrSnapshot> owned_snapshot;
  const graph::GraphView parent_view = SolveView(&owned_snapshot);
  std::vector<votes::Vote> filtered = Filter(votes, parent_view);
  report.votes_after_filter = filtered.size();
  if (filtered.empty()) {
    return Status::InvalidArgument("no votes survive filtering");
  }

  // Split: edge sets per vote -> similarity matrix -> affinity propagation.
  votes::VoteEncoder encoder(graph_, options_.encoder);
  std::vector<std::unordered_set<graph::EdgeId>> vote_edges;
  vote_edges.reserve(filtered.size());
  for (const votes::Vote& vote : filtered) {
    vote_edges.push_back(encoder.AssociatedEdges(vote));
  }
  std::vector<std::vector<double>> similarity =
      cluster::VoteSimilarityMatrix(vote_edges);
  Result<cluster::ApResult> clustering =
      cluster::AffinityPropagation(similarity, options_.ap);
  KGOV_RETURN_IF_ERROR(clustering.status());

  size_t num_clusters = clustering->exemplars.size();
  std::vector<std::vector<votes::Vote>> groups(num_clusters);
  for (size_t i = 0; i < filtered.size(); ++i) {
    groups[clustering->labels[i]].push_back(filtered[i]);
  }
  report.num_clusters = num_clusters;
  report.encode_seconds = timer.ElapsedSeconds();
  metrics.split_span->Observe(report.encode_seconds);
  metrics.clusters->Increment(num_clusters);

  // Solve one multi-vote SGP per cluster (clusters are independent by
  // construction, so they may run in parallel). A cluster whose solve
  // still fails after its retries is isolated: its votes are quarantined
  // into the report and the rest of the batch proceeds.
  timer.Restart();
  std::vector<cluster::ClusterDelta> deltas(num_clusters);
  report.cluster_seconds.assign(num_clusters, 0.0);
  Mutex report_mu{KGOV_LOCK_RANK(kSolverBatchReport)};
  Status first_error;
  std::vector<char> cluster_handled(num_clusters, 0);
  ResilientSgpSolver solver(options_.sgp, options_.retry);

  auto record_failure = [&](size_t c,
                            const Status& status) KGOV_REQUIRES(report_mu) {
    report.failed_clusters.push_back(
        ClusterFailure{c, groups[c].size(), status});
    report.quarantined_votes.insert(report.quarantined_votes.end(),
                                    groups[c].begin(), groups[c].end());
    metrics.failed_clusters->Increment();
    metrics.quarantined_votes->Increment(groups[c].size());
    if (first_error.ok()) first_error = status;
  };

  auto solve_cluster = [&](size_t c) {
    if (groups[c].empty()) {
      MutexLock lock(report_mu);
      cluster_handled[c] = 1;
      return;
    }
    Timer cluster_timer;
    // Injection point for stalled cluster solves (deadline testing).
    MaybeInjectStall(FaultSite::kSlowSolve);
    votes::VoteEncoder cluster_encoder(graph_, options_.encoder);
    Result<votes::EncodedProgram> encoded =
        cluster_encoder.EncodeBatch(groups[c]);
    if (!encoded.ok()) {
      metrics.cluster_span->Observe(cluster_timer.ElapsedSeconds());
      MutexLock lock(report_mu);
      cluster_handled[c] = 1;
      record_failure(c, encoded.status());
      return;
    }
    votes::EncodedProgram& program = encoded.value();
    ResilientSolveOutcome outcome = solver.Solve(program.problem, c);
    math::SgpSolution& solution = outcome.solution;
    if (outcome.exhausted) {
      metrics.cluster_span->Observe(cluster_timer.ElapsedSeconds());
      MutexLock lock(report_mu);
      cluster_handled[c] = 1;
      report.solve_attempts += outcome.attempts.size();
      record_failure(c, solution.status);
      return;
    }

    cluster::ClusterDelta delta;
    delta.num_votes = groups[c].size();
    const std::vector<double>& initial = program.problem.initial();
    for (size_t v = 0; v < program.variables.NumVariables(); ++v) {
      double d = solution.x[v] - initial[v];
      if (d != 0.0) {
        delta.delta[program.variables.EdgeOf(static_cast<math::VarId>(v))] =
            d;
      }
    }
    deltas[c] = std::move(delta);

    // Verify the cluster's own solution at the EIPD level: rank each
    // vote's answer list on the L-ball sub-view around its seeds and
    // answers, with the solved weights applied as overrides (the sub-view
    // keeps the parent's EdgeIds, so the solver's keys apply directly).
    size_t verified = 0;
    size_t satisfied = 0;
    {
      telemetry::ScopedSpan verify_span(metrics.verify_span);
      std::unordered_map<graph::EdgeId, double> overrides;
      overrides.reserve(program.variables.NumVariables());
      for (size_t v = 0; v < program.variables.NumVariables(); ++v) {
        overrides[program.variables.EdgeOf(static_cast<math::VarId>(v))] =
            solution.x[v];
      }
      std::vector<graph::NodeId> roots;
      for (const votes::Vote& vote : groups[c]) {
        for (const auto& [node, weight] : vote.query.links) {
          roots.push_back(node);
        }
        roots.insert(roots.end(), vote.answer_list.begin(),
                     vote.answer_list.end());
      }
      std::vector<graph::NodeId> ball = graph::CollectOutNeighborhood(
          parent_view, roots, options_.encoder.symbolic.eipd.max_length);
      Result<graph::InducedSubview> sub =
          graph::InducedSubview::Make(parent_view, ball);
      if (sub.ok()) {
        ppr::EipdEngine engine(sub->view(), options_.encoder.symbolic.eipd);
        ppr::PropagationWorkspace workspace;
        for (const votes::Vote& vote : groups[c]) {
          if (!vote.IsWellFormed()) continue;
          ppr::QuerySeed local_seed;
          local_seed.links.reserve(vote.query.links.size());
          for (const auto& [node, weight] : vote.query.links) {
            local_seed.links.emplace_back(sub->LocalOf(node), weight);
          }
          std::vector<graph::NodeId> local_answers;
          local_answers.reserve(vote.answer_list.size());
          for (graph::NodeId a : vote.answer_list) {
            local_answers.push_back(sub->LocalOf(a));
          }
          StatusOr<std::vector<ppr::ScoredAnswer>> top =
              engine.RankWithOverrides(local_seed, local_answers, 1,
                                       overrides, &workspace);
          ++verified;
          if (top.ok() && !top->empty() &&
              top->front().node == sub->LocalOf(vote.best_answer)) {
            ++satisfied;
          }
        }
      }
    }

    metrics.cluster_span->Observe(cluster_timer.ElapsedSeconds());
    metrics.votes_verified->Increment(verified);
    metrics.votes_satisfied->Increment(satisfied);
    MutexLock lock(report_mu);
    cluster_handled[c] = 1;
    report.cluster_seconds[c] = cluster_timer.ElapsedSeconds();
    report.solve_attempts += outcome.attempts.size();
    report.votes_encoded += program.encoded_vote_ids.size();
    report.constraints_total += solution.total_constraints;
    report.constraints_satisfied += solution.satisfied_constraints;
    report.votes_verified += verified;
    report.votes_satisfied += satisfied;
  };

  Status parallel_status = ParallelFor(pool, num_clusters, solve_cluster);
  report.solve_seconds = timer.ElapsedSeconds();
  metrics.solve_span->Observe(report.solve_seconds);
  // A task that died (threw) before recording any outcome still isolates
  // to its own cluster: quarantine it like a failed solve.
  if (!parallel_status.ok()) {
    MutexLock lock(report_mu);
    for (size_t c = 0; c < num_clusters; ++c) {
      if (!cluster_handled[c] && !groups[c].empty()) {
        record_failure(c, parallel_status);
      }
    }
  }
  if (report.failed_clusters.size() == num_clusters && num_clusters > 0) {
    // Nothing survived: surface the failure instead of a silent no-op.
    return first_error;
  }

  // Merge: resolve multi-cluster conflicts, apply, normalize.
  telemetry::ScopedSpan merge_span(metrics.merge_span);
  std::unordered_map<graph::EdgeId, double> merged =
      cluster::MergeClusterDeltas(deltas, options_.merge_rule);
  WeightOverlay optimized(*graph_);
  for (const auto& [edge, delta] : merged) {
    double w = optimized.Weight(edge) + delta;
    w = std::clamp(w, options_.encoder.weight_lower_bound,
                   options_.encoder.weight_upper_bound);
    optimized.SetWeight(edge, w);
  }
  report.weight_changes = std::move(merged);
  NormalizeTouchedSources(report.weight_changes, *graph_, &optimized);
  report.update = optimized.Update();
  return report;
}

graph::WeightedDigraph OptimizedGraph(const graph::WeightedDigraph& base,
                                      const OptimizeReport& report) {
  graph::WeightedDigraph optimized = base;
  optimized.ApplyWeightUpdate(report.update);
  return optimized;
}

}  // namespace kgov::core
