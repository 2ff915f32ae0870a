// KgOptimizer: the public entry point of kgov, implementing the paper's
// four graph-optimization strategies:
//
//   * SingleVoteSolve           - Algorithm 1: one hard-constrained SGP per
//                                 negative vote, solved greedily in
//                                 sequence (SIV).
//   * MultiVoteSolve            - one SGP over all votes (negative and
//                                 positive) with deviation-variable /
//                                 sigmoid objective (SV, Eq. 15/19).
//   * SplitMergeSolve           - the S-M strategy: cluster votes by edge
//                                 overlap with affinity propagation, solve
//                                 one multi-vote SGP per cluster, merge the
//                                 weight changes by the voting rule (SVI).
//   * DistributedSplitMergeSolve- S-M with clusters solved in parallel on a
//                                 thread pool (the paper's 4-machine
//                                 distributed variant).
//
// All strategies leave the input graph untouched and return G* as a
// weight-only update of it (OptimizeReport::update: every edge whose
// weight bits change, with its final weight) plus a report of what
// happened. OptimizedGraph() materializes G* for offline callers; the
// online loop applies the update in place.

#ifndef KGOV_CORE_KG_OPTIMIZER_H_
#define KGOV_CORE_KG_OPTIMIZER_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/affinity_propagation.h"
#include "cluster/merge.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/resilience.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "math/sgp_solver.h"
#include "votes/judgment.h"
#include "votes/vote.h"
#include "votes/vote_encoder.h"

namespace kgov::core {

struct OptimizerOptions {
  /// Vote -> SGP encoding settings (path length L, variable predicate,
  /// weight bounds).
  votes::EncoderOptions encoder;
  /// SGP solver settings (formulation, lambda1/lambda2, sigmoid w, inner
  /// solver). SingleVoteSolve always uses hard constraints regardless of
  /// the formulation set here.
  math::SgpSolverOptions sgp;
  /// Run the judgment filter before multi-vote encoding (SV). The filter
  /// inherits the encoder's symbolic settings.
  bool apply_judgment_filter = true;
  /// Constant for shared edges in the judgment extreme condition.
  double judgment_shared_weight = 0.5;
  /// Single-vote refinement: the hard-constraint solution sits exactly on
  /// the feasibility boundary, and the subsequent normalization can cancel
  /// slack placed on out-degree-1 edges (whose relative weight is
  /// normalization-invariant). Re-encode and re-solve against the
  /// normalized graph until the vote is satisfied, up to this many rounds.
  /// 1 reproduces the paper's Algorithm 1 verbatim.
  int single_vote_refine_rounds = 3;
  /// Affinity-propagation settings for SplitMergeSolve.
  cluster::ApOptions ap;
  /// Conflict-resolution rule for SplitMergeSolve.
  cluster::MergeRule merge_rule = cluster::MergeRule::kWeightedSignExtreme;
  /// Retry policy applied to every multi-vote SGP solve (batch and
  /// per-cluster). max_attempts = 1 reproduces the non-resilient
  /// behaviour.
  RetryOptions retry;

  /// Checks this struct and its nested option structs; returns
  /// InvalidArgument naming the first offending field. KgOptimizer captures
  /// the result at construction and every solve entry point returns it
  /// without doing work when not OK.
  Status Validate() const;
};

/// A cluster whose solve failed and was isolated from the batch.
struct ClusterFailure {
  size_t cluster = 0;
  size_t num_votes = 0;
  Status status;
};

struct OptimizeReport {
  /// The optimized graph G* as an update of the input graph: every edge
  /// whose weight bits change (including siblings renormalized alongside
  /// an updated edge) with its final weight, sorted by edge id.
  graph::WeightUpdate update;
  /// Votes given / surviving the judgment filter / actually encoded.
  size_t votes_in = 0;
  size_t votes_after_filter = 0;
  size_t votes_encoded = 0;
  /// Constraint satisfaction at the solution (multi-vote strategies).
  int constraints_total = 0;
  int constraints_satisfied = 0;
  /// Cluster count (split-and-merge strategies; 0 otherwise).
  size_t num_clusters = 0;
  /// Per-cluster solve wall times (split-and-merge strategies). Lets
  /// callers compute a simulated distributed makespan on machines with too
  /// few cores to measure real parallel speedups.
  std::vector<double> cluster_seconds;
  /// Wall time spent building programs vs solving them.
  double encode_seconds = 0.0;
  double solve_seconds = 0.0;
  /// Net weight change applied per edge (before normalization).
  std::unordered_map<graph::EdgeId, double> weight_changes;
  /// Total SGP solve attempts, counting retries (split-and-merge and
  /// multi-vote strategies).
  size_t solve_attempts = 0;
  /// Split-and-merge: votes re-ranked by EIPD on their cluster's zero-copy
  /// induced sub-view of the parent CSR (the L-ball around the votes'
  /// seeds and answers) under the solved weights, and how many of them
  /// ranked their voted best answer first.
  size_t votes_verified = 0;
  size_t votes_satisfied = 0;
  /// Clusters skipped by failure isolation (split-and-merge strategies): a
  /// cluster whose solve still fails after every retry, or whose task
  /// dies, is quarantined instead of failing the batch.
  std::vector<ClusterFailure> failed_clusters;
  /// The failed clusters' votes, untouched, so the caller can re-queue
  /// them (see OnlineKgOptimizer) or inspect them.
  std::vector<votes::Vote> quarantined_votes;
};

class KgOptimizer {
 public:
  /// `graph` is borrowed (never mutated) and must outlive the optimizer.
  /// `view`, when given, is a frozen CSR view of `graph` with edge ids and
  /// identical weights (e.g. the serving epoch's view) and must outlive the
  /// optimizer too; the judgment filter and split-merge verification read
  /// it. Without one, each solve that needs a CSR builds one and shares it
  /// between the two.
  KgOptimizer(const graph::WeightedDigraph* graph, OptimizerOptions options,
              graph::GraphView view = {});

  const OptimizerOptions& options() const { return options_; }

  /// Algorithm 1. Positive votes are ignored (SIV-B). Infeasible votes
  /// still apply the solver's best-effort point, matching the greedy
  /// baseline behaviour.
  Result<OptimizeReport> SingleVoteSolve(
      const std::vector<votes::Vote>& votes) const;

  /// One batch SGP over all votes (SV).
  Result<OptimizeReport> MultiVoteSolve(
      const std::vector<votes::Vote>& votes) const;

  /// MultiVoteSolve restricted to a sub-scope: only edges satisfying
  /// `scope` (ANDed with the configured encoder.is_variable) are treated
  /// as variables; everything else is held constant. The streaming write
  /// path uses this to re-solve only dirty partition clusters. A null
  /// scope degenerates to MultiVoteSolve.
  Result<OptimizeReport> MultiVoteSolveScoped(
      const std::vector<votes::Vote>& votes,
      ppr::SymbolicEipd::VariablePredicate scope) const;

  /// Split-and-merge (SVI); sequential cluster solves.
  Result<OptimizeReport> SplitMergeSolve(
      const std::vector<votes::Vote>& votes) const;

  /// SplitMergeSolve restricted to a sub-scope (see MultiVoteSolveScoped):
  /// the incremental re-solve entry point of the streaming pipeline.
  Result<OptimizeReport> SplitMergeSolveScoped(
      const std::vector<votes::Vote>& votes,
      ppr::SymbolicEipd::VariablePredicate scope) const;

  /// Split-and-merge with clusters solved on `pool` (must have >= 1
  /// worker; the paper used 4 machines).
  Result<OptimizeReport> DistributedSplitMergeSolve(
      const std::vector<votes::Vote>& votes, ThreadPool* pool) const;

 private:
  Result<OptimizeReport> SplitMergeImpl(const std::vector<votes::Vote>& votes,
                                        ThreadPool* pool) const;

  /// Applies judgment filtering when enabled; returns surviving votes.
  /// `view` is the solve's CSR view of graph_ (see SolveView).
  std::vector<votes::Vote> Filter(const std::vector<votes::Vote>& votes,
                                  graph::GraphView view) const;

  /// The CSR view of graph_ this solve reads: the borrowed view_ when one
  /// was given, else a snapshot built into `*owned` (kept alive by the
  /// caller for the solve's duration).
  graph::GraphView SolveView(
      std::unique_ptr<graph::CsrSnapshot>* owned) const;

  const graph::WeightedDigraph* graph_;
  OptimizerOptions options_;
  // Borrowed CSR view of *graph_; empty (no edge ids) when none was given.
  graph::GraphView view_;
  // options_.Validate() captured at construction; solve entry points fail
  // fast with it when not OK.
  Status options_status_;
};

/// G*: a copy of `base` (the graph `report` was solved on) with
/// report.update applied. For offline callers that want the optimized
/// graph as a value; O(|V| + |E|).
graph::WeightedDigraph OptimizedGraph(const graph::WeightedDigraph& base,
                                      const OptimizeReport& report);

}  // namespace kgov::core

#endif  // KGOV_CORE_KG_OPTIMIZER_H_
