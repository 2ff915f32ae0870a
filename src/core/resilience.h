// Fault-tolerance building blocks for the optimization pipeline:
//
//  * ResilientSgpSolver - wraps SgpSolver with one retry policy: a failed
//    solve (NotConverged / NumericalError / DeadlineExceeded / Infeasible)
//    is retried with the same formulation, restarted from a jittered copy
//    of the original initial point, up to max_attempts in total. Every
//    attempt is recorded; the best finite point seen is returned even
//    when every attempt failed.
//
//  * ValidateGraphUpdate - invariant checks run on an optimized graph
//    before it replaces the serving graph: finite weights, weights in
//    bounds, out-weight sub-stochasticity, and no edge-set drift. A
//    violation means the update must be rolled back.
//
//  * ValidateWeightUpdate - the same verdict for a weight-only update
//    (graph::WeightUpdate), reading only the updated edges and their
//    source nodes: what OnlineKgOptimizer's flush runs before it applies
//    an update in place.
//
// Everything here is deterministic: the jitter stream is seeded, and a
// fixed seed plus fixed attempt order replays identical restarts.

#ifndef KGOV_CORE_RESILIENCE_H_
#define KGOV_CORE_RESILIENCE_H_

#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "math/sgp_solver.h"

namespace kgov::core {

/// Retry policy for one logical SGP solve.
struct RetryOptions {
  /// Total attempts, including the first one. 1 disables retries. Checked
  /// (>= 1) by OptimizerOptions::Validate.
  int max_attempts = 3;
};

/// What happened on one attempt.
struct SolveAttempt {
  int attempt = 0;
  Status status;
  double seconds = 0.0;
};

/// Result of a resilient solve. `solution.x` is always finite (the
/// underlying solver sanitizes its points); `exhausted` is true when no
/// attempt returned OK.
struct ResilientSolveOutcome {
  math::SgpSolution solution;
  std::vector<SolveAttempt> attempts;
  bool exhausted = false;
};

class ResilientSgpSolver {
 public:
  /// `retry.max_attempts` must be >= 1.
  ResilientSgpSolver(math::SgpSolverOptions base, RetryOptions retry);

  /// Solves with retries. `seed_salt` is mixed into the jitter seed so
  /// concurrent callers (e.g. per-cluster solves) draw independent but
  /// deterministic restart streams; pass the cluster index.
  ResilientSolveOutcome Solve(const math::SgpProblem& problem,
                              uint64_t seed_salt = 0) const;

 private:
  math::SgpSolverOptions base_;
  RetryOptions retry_;
};

/// Invariants an optimized graph must satisfy before it may replace the
/// serving graph: every weight finite and inside the bounds, every node's
/// out-weights summing to <= 1 + tolerance (the convergence condition for
/// the random-walk similarity series), and exactly the input's node and
/// edge sets (the optimizer only changes weights).
struct GraphValidatorOptions {
  double weight_lower_bound = 0.0;
  double weight_upper_bound = 1.0;
  double tolerance = 1e-6;

  /// Checks every field range. ValidateGraphUpdate fails fast with the
  /// result.
  Status Validate() const;
};

/// Verifies that `after` is a legal weight-only update of `before`.
/// Returns OK or FailedPrecondition naming the first violated invariant.
/// O(|E|): the whole-graph reference that ValidateWeightUpdate matches.
Status ValidateGraphUpdate(const graph::WeightedDigraph& before,
                           const graph::WeightedDigraph& after,
                           const GraphValidatorOptions& options = {});

/// What a graph already violates of the validator's invariants, each list
/// sorted: edges whose weight is non-finite or out of bounds, and nodes
/// whose out-weights sum past 1 + tolerance.
struct GraphViolations {
  std::vector<graph::EdgeId> edges;
  std::vector<graph::NodeId> nodes;
};

/// Collects `graph`'s violations of `options` (assumed valid). O(|E|).
GraphViolations FindViolations(const graph::WeightedDigraph& graph,
                               const GraphValidatorOptions& options);

/// The verdict ValidateGraphUpdate(before, after, options) would return,
/// message included, where `after` is `before` with `update` applied and
/// `baseline` is FindViolations(before, options). Reads only the updated
/// edges, their source nodes and the baseline: O(|update| + the sources'
/// out-degrees + |baseline|). An update that does not repair every
/// baseline violation fails, as the whole-graph check does. Also fails an
/// update whose entries are not sorted unique edge ids of `before`.
Status ValidateWeightUpdate(const graph::WeightedDigraph& before,
                            const graph::WeightUpdate& update,
                            const GraphValidatorOptions& options,
                            const GraphViolations& baseline);

}  // namespace kgov::core

#endif  // KGOV_CORE_RESILIENCE_H_
