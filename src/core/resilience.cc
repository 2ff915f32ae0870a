#include "core/resilience.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/contracts.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "telemetry/metrics.h"

namespace kgov::core {

Status GraphValidatorOptions::Validate() const {
  if (!std::isfinite(weight_lower_bound) ||
      !std::isfinite(weight_upper_bound)) {
    return Status::InvalidArgument(
        "GraphValidatorOptions weight bounds must be finite, got [" +
        std::to_string(weight_lower_bound) + ", " +
        std::to_string(weight_upper_bound) + "]");
  }
  if (!(weight_lower_bound <= weight_upper_bound)) {
    return Status::InvalidArgument(
        "GraphValidatorOptions.weight_lower_bound must be <= "
        "weight_upper_bound, got [" + std::to_string(weight_lower_bound) +
        ", " + std::to_string(weight_upper_bound) + "]");
  }
  if (!(tolerance >= 0.0) || !std::isfinite(tolerance)) {
    return Status::InvalidArgument(
        "GraphValidatorOptions.tolerance must be finite and >= 0, got " +
        std::to_string(tolerance));
  }
  return Status::OK();
}

namespace {

// Restart perturbation, as a fraction of each variable's box width: retry
// k starts from initial + kRestartJitter * U(-1, 1) * width, projected.
constexpr double kRestartJitter = 0.05;
// Seed of the deterministic jitter stream (mixed with the caller's salt).
constexpr uint64_t kJitterSeed = 0x51F0'D2B4'9C3E'A871ull;

// Retryable failures: transient (a different start point can succeed).
// InvalidArgument/Internal are structural and retried never.
bool IsRetryable(const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotConverged:
    case StatusCode::kInfeasible:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kNumericalError:
      return true;
    default:
      return false;
  }
}

// True when `a` is a strictly better solve outcome than `b`.
bool BetterThan(const math::SgpSolution& a, const math::SgpSolution& b) {
  if (a.status.ok() != b.status.ok()) return a.status.ok();
  if (a.satisfied_constraints != b.satisfied_constraints) {
    return a.satisfied_constraints > b.satisfied_constraints;
  }
  return a.objective < b.objective;
}

// Telemetry for the retry loop; pointers resolved once.
struct ResilienceMetrics {
  telemetry::Counter* solves;
  telemetry::Counter* attempts;
  telemetry::Counter* retries;
  telemetry::Counter* deadline_hits;
  telemetry::Counter* recovered;
  telemetry::Counter* exhausted;
  telemetry::Histogram* attempt_span;

  static const ResilienceMetrics& Get() {
    static const ResilienceMetrics m = [] {
      telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Global();
      return ResilienceMetrics{
          reg.GetCounter("resilience.solves"),
          reg.GetCounter("resilience.attempts"),
          reg.GetCounter("resilience.retries"),
          reg.GetCounter("resilience.deadline_hits"),
          reg.GetCounter("resilience.recovered"),
          reg.GetCounter("resilience.exhausted"),
          reg.GetHistogram("span.resilience.attempt.seconds")};
    }();
    return m;
  }
};

}  // namespace

ResilientSgpSolver::ResilientSgpSolver(math::SgpSolverOptions base,
                                       RetryOptions retry)
    : base_(std::move(base)), retry_(retry) {
  KGOV_DCHECK(retry_.max_attempts >= 1);
}

ResilientSolveOutcome ResilientSgpSolver::Solve(
    const math::SgpProblem& problem, uint64_t seed_salt) const {
  const ResilienceMetrics& metrics = ResilienceMetrics::Get();
  metrics.solves->Increment();
  ResilientSolveOutcome outcome;
  const math::SgpSolver solver(base_);
  Rng jitter_rng(kJitterSeed ^ (seed_salt * 0x9E3779B97F4A7C15ull));
  const std::vector<double>& original_initial = problem.initial();

  bool have_best = false;
  math::SgpSolution best;

  for (int attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    // Restart point: the original initial values on attempt 0, a jittered
    // perturbation of them afterwards. The anchor (proximal target) stays
    // pinned to the original weights either way.
    math::SgpProblem restarted;  // only used on retries
    const math::SgpProblem* to_solve = &problem;
    if (attempt > 0) {
      restarted = problem;
      std::vector<double> x0 = original_initial;
      const math::BoxBounds& bounds = problem.bounds();
      for (size_t i = 0; i < x0.size(); ++i) {
        double width = 1.0;
        if (i < bounds.lower.size() && i < bounds.upper.size()) {
          width = bounds.upper[i] - bounds.lower[i];
        }
        x0[i] += kRestartJitter * jitter_rng.Uniform(-1.0, 1.0) * width;
      }
      restarted.SetInitial(std::move(x0));
      to_solve = &restarted;
    }

    Timer timer;
    math::SgpSolution solution = solver.Solve(*to_solve);
    SolveAttempt record;
    record.attempt = attempt;
    record.status = solution.status;
    record.seconds = timer.ElapsedSeconds();
    outcome.attempts.push_back(record);

    metrics.attempts->Increment();
    metrics.attempt_span->Observe(record.seconds);
    if (attempt > 0) metrics.retries->Increment();
    if (solution.status.IsDeadlineExceeded()) {
      metrics.deadline_hits->Increment();
    }

    if (!have_best || BetterThan(solution, best)) {
      best = solution;
      have_best = true;
    }
    if (solution.status.ok()) {
      if (attempt > 0) metrics.recovered->Increment();
      outcome.solution = std::move(solution);
      return outcome;
    }
    if (!IsRetryable(solution.status)) {
      // Structural failure: retrying cannot help.
      metrics.exhausted->Increment();
      outcome.solution = std::move(solution);
      outcome.exhausted = true;
      return outcome;
    }
    KGOV_LOG(DEBUG) << "SGP attempt " << attempt
                    << " failed: " << solution.status << "; retrying";
  }

  outcome.exhausted = true;
  metrics.exhausted->Increment();
  outcome.solution = std::move(best);
  return outcome;
}

namespace {

// The per-edge invariants (finite, inside the widened bounds); the error
// names the edge. Shared by the whole-graph and the update validators so
// both report a violation with the same words.
Status CheckEdgeWeight(graph::EdgeId e, double w,
                       const GraphValidatorOptions& options) {
  if (!std::isfinite(w)) {
    return Status::FailedPrecondition("edge " + std::to_string(e) +
                                      " has non-finite weight");
  }
  const double lo = options.weight_lower_bound - options.tolerance;
  const double hi = options.weight_upper_bound + options.tolerance;
  if (w < lo || w > hi) {
    return Status::FailedPrecondition(
        "edge " + std::to_string(e) + " weight " + std::to_string(w) +
        " outside [" + std::to_string(options.weight_lower_bound) + ", " +
        std::to_string(options.weight_upper_bound) + "]");
  }
  return Status::OK();
}

Status SubStochasticViolation() {
  return Status::FailedPrecondition(
      "out-weight normalization violated: a node's out-weights sum to "
      "more than 1");
}

}  // namespace

Status ValidateGraphUpdate(const graph::WeightedDigraph& before,
                           const graph::WeightedDigraph& after,
                           const GraphValidatorOptions& options) {
  KGOV_RETURN_IF_ERROR(options.Validate());
  if (after.NumNodes() != before.NumNodes()) {
    return Status::FailedPrecondition(
        "node count drift: " + std::to_string(before.NumNodes()) + " -> " +
        std::to_string(after.NumNodes()));
  }
  if (after.NumEdges() != before.NumEdges()) {
    return Status::FailedPrecondition(
        "edge count drift: " + std::to_string(before.NumEdges()) + " -> " +
        std::to_string(after.NumEdges()));
  }
  for (graph::EdgeId e = 0; e < before.NumEdges(); ++e) {
    const graph::Edge& eb = before.edge(e);
    const graph::Edge& ea = after.edge(e);
    if (eb.from != ea.from || eb.to != ea.to) {
      return Status::FailedPrecondition("edge " + std::to_string(e) +
                                        " endpoints drifted");
    }
  }
  for (graph::EdgeId e = 0; e < after.NumEdges(); ++e) {
    KGOV_RETURN_IF_ERROR(CheckEdgeWeight(e, after.Weight(e), options));
  }
  if (!after.IsSubStochastic(options.tolerance)) {
    return SubStochasticViolation();
  }
  return Status::OK();
}

GraphViolations FindViolations(const graph::WeightedDigraph& graph,
                               const GraphValidatorOptions& options) {
  GraphViolations found;
  for (graph::EdgeId e = 0; e < graph.NumEdges(); ++e) {
    if (!CheckEdgeWeight(e, graph.Weight(e), options).ok()) {
      found.edges.push_back(e);
    }
  }
  for (graph::NodeId v = 0; v < graph.NumNodes(); ++v) {
    if (graph.OutWeightSum(v) > 1.0 + options.tolerance) {
      found.nodes.push_back(v);
    }
  }
  return found;
}

Status ValidateWeightUpdate(const graph::WeightedDigraph& before,
                            const graph::WeightUpdate& update,
                            const GraphValidatorOptions& options,
                            const GraphViolations& baseline) {
  KGOV_RETURN_IF_ERROR(options.Validate());
  for (size_t i = 0; i < update.size(); ++i) {
    if (update[i].edge >= before.NumEdges()) {
      return Status::FailedPrecondition(
          "update names edge " + std::to_string(update[i].edge) +
          " of a graph with " + std::to_string(before.NumEdges()) + " edges");
    }
    if (i > 0 && update[i].edge <= update[i - 1].edge) {
      return Status::FailedPrecondition(
          "update entries are not sorted unique at edge " +
          std::to_string(update[i].edge));
    }
  }
  auto updated = [&](graph::EdgeId e) -> const graph::EdgeWeight* {
    auto it = std::lower_bound(
        update.begin(), update.end(), e,
        [](const graph::EdgeWeight& a, graph::EdgeId id) {
          return a.edge < id;
        });
    return it != update.end() && it->edge == e ? &*it : nullptr;
  };

  // The updated graph's first bad edge, in edge-id order, is either an
  // updated edge or a baseline violation the update left in place.
  Status first_bad;
  graph::EdgeId first_bad_edge = graph::kInvalidEdge;
  for (const graph::EdgeWeight& entry : update) {
    first_bad = CheckEdgeWeight(entry.edge, entry.weight, options);
    if (!first_bad.ok()) {
      first_bad_edge = entry.edge;
      break;
    }
  }
  for (graph::EdgeId e : baseline.edges) {
    if (e >= first_bad_edge) break;
    if (updated(e) == nullptr) {
      first_bad = CheckEdgeWeight(e, before.Weight(e), options);
      KGOV_DCHECK(!first_bad.ok());
      break;
    }
  }
  KGOV_RETURN_IF_ERROR(first_bad);

  // Only the updated edges' source nodes can change their sums; each is
  // summed in out-edge order, the float path of OutWeightSum.
  std::vector<graph::NodeId> sources;
  sources.reserve(update.size());
  for (const graph::EdgeWeight& entry : update) {
    sources.push_back(before.edge(entry.edge).from);
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  for (graph::NodeId node : sources) {
    double sum = 0.0;
    for (const graph::OutEdge& out : before.OutEdges(node)) {
      const graph::EdgeWeight* entry = updated(out.edge);
      sum += entry == nullptr ? before.Weight(out.edge) : entry->weight;
    }
    if (sum > 1.0 + options.tolerance) return SubStochasticViolation();
  }
  for (graph::NodeId node : baseline.nodes) {
    if (!std::binary_search(sources.begin(), sources.end(), node)) {
      return SubStochasticViolation();
    }
  }
  return Status::OK();
}

}  // namespace kgov::core
