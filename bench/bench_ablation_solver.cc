// Ablation: inner solver choice (projected Barzilai-Borwein gradient vs
// L-BFGS) for the multi-vote SGP, at several vote-set sizes. Both are
// local solvers for the same smooth box-constrained problem; this bench
// backs the default choice with measured time/quality numbers.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/scoring.h"
#include "graph/source.h"
#include "votes/vote_generator.h"

namespace kgov {
namespace {

int Run() {
  bench::Banner("Ablation: inner solver (projected BB vs L-BFGS)",
                "solver substitution for fmincon (DESIGN.md SS1)");

  graph::GeneratorSpec spec;
  spec.kind = graph::GeneratorKind::kScaleFree;
  spec.num_nodes = 4000;
  spec.num_edges = 16000;
  Result<graph::WeightedDigraph> base =
      graph::LoadGraph(graph::GraphSource::Generator(spec, 882));
  if (!base.ok()) return 1;
  Rng rng(885);  // workload stream, separate from the generator's

  votes::SyntheticVoteParams params;
  params.num_queries = 60;
  params.num_answers = 500;
  params.subgraph_nodes = 2000;
  params.top_k = 12;
  Result<votes::SyntheticWorkload> workload =
      votes::GenerateSyntheticWorkload(*base, params, rng);
  if (!workload.ok()) return 1;

  bench::TablePrinter table(
      {"#votes", "solver", "time", "omega_avg", "satisfied"},
      {7, 14, 9, 10, 10});
  table.PrintHeader();

  for (size_t n : {15u, 30u, 60u}) {
    std::vector<votes::Vote> votes(workload->votes.begin(),
                                   workload->votes.begin() + n);
    for (auto kind : {math::InnerSolverKind::kProjectedBb,
                      math::InnerSolverKind::kLbfgs}) {
      core::OptimizerOptions options;
      options.encoder.symbolic.eipd.max_length = 4;
      options.encoder.symbolic.min_path_mass = 1e-8;
      options.encoder.is_variable = workload->EntityEdgePredicate();
      options.sgp.inner_solver = kind;

      core::KgOptimizer optimizer(&workload->graph, options);
      Timer timer;
      Result<core::OptimizeReport> report = optimizer.MultiVoteSolve(votes);
      double seconds = timer.ElapsedSeconds();
      if (!report.ok()) continue;
      core::OmegaResult omega =
          core::EvaluateOmega(core::OptimizedGraph(workload->graph, *report),
                              votes, options.encoder.symbolic.eipd);
      table.PrintRow(
          {std::to_string(n),
           kind == math::InnerSolverKind::kProjectedBb ? "projected-BB"
                                                       : "L-BFGS",
           FormatDuration(seconds), bench::Num(omega.average),
           std::to_string(report->constraints_satisfied) + "/" +
               std::to_string(report->constraints_total)});
    }
  }

  std::printf(
      "\nExpected: comparable Omega_avg (both reach local optima of the "
      "same\nobjective); relative speed depends on problem conditioning.\n");
  return 0;
}

}  // namespace
}  // namespace kgov

int main() { return kgov::Run(); }
