// Table IV: ranking of best answers in the test dataset.
//
// Columns: Ravg (average rank of the best answer on 100 expert-labeled
// test questions), Omega_avg (Definition 3 / Eq. 21 on the vote set), and
// Pavg (per-question percentage improvement) for the original graph, the
// graph optimized by the single-vote solution, and the graph optimized by
// the multi-vote solution.
//
// Paper values: original Ravg 3.56; single-vote 3.59 (Omega -0.03, Pavg
// -0.84%); multi-vote 2.86 (Omega 0.67, Pavg 18.82%). The expected shape:
// multi-vote clearly improves, single-vote roughly neutral-to-worse.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/scoring.h"
#include "math/stats.h"
#include "qa/metrics.h"

namespace kgov {
namespace {

std::vector<std::vector<qa::RankedDocument>> AskAll(
    const graph::WeightedDigraph& graph, const qa::SimulatedEnvironment& env,
    const qa::QaOptions& qa_options,
    const std::vector<qa::Question>& questions) {
  qa::QaSystem system(&graph, &env.deployed.answer_nodes,
                      env.deployed.num_entities, qa_options);
  std::vector<std::vector<qa::RankedDocument>> rankings;
  rankings.reserve(questions.size());
  for (const qa::Question& q : questions) {
    rankings.push_back(system.Ask(q));
  }
  return rankings;
}

std::vector<double> BestRanks(
    const std::vector<qa::Question>& questions,
    const std::vector<std::vector<qa::RankedDocument>>& rankings) {
  std::vector<double> ranks;
  for (size_t i = 0; i < questions.size(); ++i) {
    int rank = qa::DocumentRank(rankings[i], questions[i].best_document);
    ranks.push_back(rank > 0
                        ? static_cast<double>(rank)
                        : static_cast<double>(rankings[i].size() + 1));
  }
  return ranks;
}

int Run() {
  bench::Banner("Table IV: ranking of best answers in test dataset",
                "Table IV (SVII-B)");

  Timer total;
  Result<bench::TaobaoEnvironment> setup =
      bench::MakeTaobaoEnvironment(1.0, /*seed=*/7101);
  if (!setup.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 setup.status().ToString().c_str());
    return 1;
  }
  bench::TaobaoEnvironment& t = *setup;
  const auto& votes = t.env.votes;
  votes::VoteSetSummary summary = votes::Summarize(votes);
  std::printf("corpus: %zu entities, %zu documents; votes: %zu negative, "
              "%zu positive; %zu test questions\n",
              t.corpus_params.num_entities, t.corpus_params.num_documents,
              summary.negative, summary.positive,
              t.env.test_questions.size());

  core::KgOptimizer optimizer(&t.env.deployed.graph, t.optimizer_options);

  Timer timer;
  Result<core::OptimizeReport> single = optimizer.SingleVoteSolve(votes);
  double single_time = timer.ElapsedSeconds();
  timer.Restart();
  Result<core::OptimizeReport> multi = optimizer.MultiVoteSolve(votes);
  double multi_time = timer.ElapsedSeconds();
  if (!single.ok() || !multi.ok()) {
    std::fprintf(stderr, "optimization failed\n");
    return 1;
  }

  // Evaluate each graph on the expert-labeled test questions.
  auto original_rankings = AskAll(t.env.deployed.graph, t.env,
                                  t.sim_params.qa, t.env.test_questions);
  const graph::WeightedDigraph single_graph =
      core::OptimizedGraph(t.env.deployed.graph, *single);
  const graph::WeightedDigraph multi_graph =
      core::OptimizedGraph(t.env.deployed.graph, *multi);
  auto single_rankings = AskAll(single_graph, t.env, t.sim_params.qa,
                                t.env.test_questions);
  auto multi_rankings = AskAll(multi_graph, t.env, t.sim_params.qa,
                               t.env.test_questions);

  std::vector<double> original_ranks =
      BestRanks(t.env.test_questions, original_rankings);
  std::vector<double> single_ranks =
      BestRanks(t.env.test_questions, single_rankings);
  std::vector<double> multi_ranks =
      BestRanks(t.env.test_questions, multi_rankings);

  core::OmegaResult omega_single =
      core::EvaluateOmega(single_graph, votes, t.sim_params.qa.eipd);
  core::OmegaResult omega_multi =
      core::EvaluateOmega(multi_graph, votes, t.sim_params.qa.eipd);

  bench::TablePrinter table({"Graph", "Ravg", "Omega_avg", "Pavg"},
                            {36, 8, 10, 10});
  table.PrintHeader();
  table.PrintRow({"Original Graph", bench::Num(math::Mean(original_ranks)),
                  "-", "-"});
  table.PrintRow(
      {"Optimized by single-vote solution",
       bench::Num(math::Mean(single_ranks)),
       bench::Num(omega_single.average),
       bench::Num(100.0 * qa::AveragePercentImprovement(original_ranks,
                                                        single_ranks)) +
           "%"});
  table.PrintRow(
      {"Optimized by multi-vote solution",
       bench::Num(math::Mean(multi_ranks)), bench::Num(omega_multi.average),
       bench::Num(100.0 * qa::AveragePercentImprovement(original_ranks,
                                                        multi_ranks)) +
           "%"});

  std::printf(
      "\nPaper Table IV: original 3.56 / single 3.59 (Omega -0.03, Pavg "
      "-0.84%%) / multi 2.86 (Omega 0.67, Pavg 18.82%%)\n");
  std::printf("timing: single-vote %.1fs, multi-vote %.1fs, total %.1fs\n",
              single_time, multi_time, total.ElapsedSeconds());
  return 0;
}

}  // namespace
}  // namespace kgov

int main() { return kgov::Run(); }
