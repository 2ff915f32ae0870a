// helpdesk-vote: the paper's loop on the paper-scale help-desk knowledge
// graph (TaobaoScaleParams: 1663 entities + 2379 documents, ~36k edges,
// walks of length 5, top-20 answers) built by qa::BuildEnvironment.
//
// Simulated users' votes (5% erroneous) go through StreamPipeline + WAL in
// closed-loop micro-batches of eight (Offer x8, DrainOnce); between
// batches the test questions are served through SubmitBatch and the
// deployment is checkpointed and restarted. Each flush is dominated by the
// SGP solve; cache misses run the dense EIPD kernel.
//
// The knowledge graph and its vote sequence are built from a fixed seed,
// so every run folds the same micro-batches: the solve work is identical
// on every run and only the host's speed moves the vote metrics. --seed
// draws the questions served between the batches.

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "qa/metrics.h"
#include "qa/user_sim.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace kgov::perfbench {
namespace {

constexpr size_t kTestQuestions = 1000;
constexpr size_t kReplayQuestions = 256;  // not served during the load
constexpr size_t kVotesPerBatch = 8;
constexpr size_t kMrrAfterBatches = 3;
// A run folds a fixed number of micro-batches, one per this many seconds
// of --seconds (90 at 45 s; a round took 0.4-0.6 s on the measured host),
// so the solve work is the same on every run of the same length.
constexpr double kSecondsPerBatch = 0.5;
constexpr size_t kRoundQuestions = 256;  // test questions served per round
// Seed of the knowledge graph and the simulated users' votes. The flush
// cost of one vote varies 10x between votes and between graphs, so a
// graph and vote sequence drawn per --seed made the run's vote metrics
// follow the seed rather than the program.
constexpr uint64_t kGraphSeed = 1;
// Symbolic-walk pruning of the vote encoder. 1e-5 (the repository's
// standard study uses 1e-8) cuts a flush from about 4 s to about 0.3 s,
// so a run folds 90 micro-batches and its vote latencies rest on many
// samples of a host whose speed drifts by tens of percent from second to
// second; the SGP solve is still ~83% of every flush.
constexpr double kMinPathMass = 1e-5;

struct HelpdeskInputs {
  qa::CorpusParams corpus_params;
  qa::UserSimParams sim;
  qa::SimulatedEnvironment env;
  /// The test questions, then the replay questions.
  std::vector<ppr::QuerySeed> seeds;
  std::vector<qa::Question> test_questions;
  std::vector<uint32_t> test_indices;
  std::vector<uint32_t> replay_indices;
  std::vector<graph::NodeId> test_best;
};

std::unique_ptr<HelpdeskInputs> MakeInputs(uint64_t seed, size_t num_votes) {
  auto in = std::make_unique<HelpdeskInputs>();
  in->corpus_params = qa::TaobaoScaleParams();
  in->sim.num_votes = num_votes;
  // BuildEnvironment also draws a Zipf-targeted test set; the report uses
  // the uniform one drawn below instead.
  in->sim.num_test_questions = kTestQuestions;
  in->sim.qa.top_k = 20;
  in->sim.qa.eipd.max_length = 5;
  in->sim.weight_noise = 0.55;
  in->sim.edge_dropout = 0.06;
  in->sim.vote_error_rate = 0.05;
  kgov::Rng graph_rng(kGraphSeed);
  auto env = qa::BuildEnvironment(in->corpus_params, in->sim, graph_rng);
  KGOV_CHECK(env.ok());
  in->env = std::move(env).value();
  kgov::Rng rng(seed);
  const size_t entities = in->env.deployed.num_entities;
  // Test questions target documents uniformly, so answer_mrr averages over
  // the whole corpus instead of a few head documents.
  qa::CorpusParams uniform = in->corpus_params;
  uniform.question_popularity_skew = 0.0;
  in->test_questions =
      qa::GenerateQuestions(in->env.corpus, kTestQuestions, uniform, rng);
  for (const qa::Question& q : in->test_questions) {
    in->test_indices.push_back(static_cast<uint32_t>(in->seeds.size()));
    in->seeds.push_back(qa::LinkQuestion(q, entities));
    in->test_best.push_back(in->env.deployed.answer_nodes[q.best_document]);
  }
  for (const qa::Question& q : qa::GenerateQuestions(
           in->env.corpus, kReplayQuestions, in->corpus_params, rng)) {
    in->replay_indices.push_back(static_cast<uint32_t>(in->seeds.size()));
    in->seeds.push_back(qa::LinkQuestion(q, entities));
  }
  return in;
}

SystemConfig MakeConfig(const HelpdeskInputs& in, const std::string& dir) {
  SystemConfig c;
  c.dir = dir;
  c.num_entities = in.env.deployed.num_entities;
  c.num_documents = in.env.deployed.answer_nodes.size();
  // The repository's standard simulated-study optimizer settings; the
  // pipeline owns the flush cadence.
  c.optimizer.batch_size = size_t{1} << 20;
  c.optimizer.optimizer.encoder.symbolic.eipd = in.sim.qa.eipd;
  c.optimizer.optimizer.encoder.symbolic.min_path_mass = kMinPathMass;
  c.optimizer.optimizer.encoder.is_variable =
      in.env.deployed.EntityEdgePredicate();
  c.optimizer.optimizer.sgp.lambda1 = 1.0;
  c.optimizer.optimizer.sgp.lambda2 = 0.5;
  c.engine.eipd = in.sim.qa.eipd;
  c.engine.top_k = in.sim.qa.top_k;
  c.engine.num_threads = 2;
  c.pipeline.micro_batch_size = kVotesPerBatch;
  return c;
}

/// Serves the test questions on the current epoch and checks the served
/// MRR against qa::EvaluateServingView on the same pinned snapshot.
double ServedMrr(const LoadContext& ctx, const HelpdeskInputs& in,
                 QueryClient* sink, RunData* data) {
  const core::ServingEpoch epoch = ctx.system->online->CurrentEpoch();
  const auto rankings = ServeBatches(ctx, in.test_indices, 64, 1, sink);
  const double served = MeanReciprocalRank(rankings, in.test_best);
  const double cold = qa::EvaluateServingView(
                          epoch.view(), in.env.deployed.answer_nodes,
                          in.env.deployed.num_entities,
                          in.test_questions, in.sim.qa)
                          .mrr;
  ++data->other_attempted;
  if (std::fabs(served - cold) > 1e-9) {
    ++data->other_failed;
    std::printf("MRR MISMATCH on epoch %" PRIu64 ": served %.6f, cold %.6f\n",
                epoch.epoch, served, cold);
  }
  return served;
}

/// `rounds` closed-loop micro-batches: Offer x8, DrainOnce, then the first
/// kRoundQuestions test questions through SubmitBatch, then a checkpoint
/// and a restart checked against the live epoch.
/// answer_mrr is taken after kMrrAfterBatches batches.
/// Returns the telemetry the restarts added, which the measured window
/// leaves out.
RegistryTotals RunVoteLoop(const LoadContext& ctx, const HelpdeskInputs& in,
                           size_t rounds,
                           std::vector<std::vector<votes::Vote>>* batches,
                           RunData* data) {
  System& system = *ctx.system;
  Tracer& tracer = *ctx.tracer;
  std::vector<Span> spans;
  QueryClient queries;
  RegistryTotals restarts;
  size_t next_vote = 0;
  const std::vector<uint32_t> round_indices(
      in.test_indices.begin(), in.test_indices.begin() + kRoundQuestions);
  std::vector<const ppr::QuerySeed*> check_seeds;
  for (size_t i = 0; i < 8; ++i) {
    check_seeds.push_back(&in.seeds[in.test_indices[i]]);
  }
  TimePoint previous_end = Clock::now();
  for (size_t b = 0; b < rounds; ++b) {
    const TimePoint start = Clock::now();
    data->late_ms.push_back(SecondsBetween(previous_end, start) * 1e3);
    std::vector<votes::Vote> batch;
    std::vector<TimePoint> acked;
    for (size_t i = 0; i < kVotesPerBatch; ++i, ++next_vote) {
      votes::Vote vote = in.env.votes[next_vote % in.env.votes.size()];
      vote.id = static_cast<uint32_t>(next_vote + 1);
      batch.push_back(vote);
      const TimePoint o0 = Clock::now();
      Status offered = system.pipeline->Offer(std::move(vote));
      const TimePoint o1 = Clock::now();
      ++data->votes_offered;
      if (tracer.Active(next_vote + 1)) {
        spans.push_back(Span{Call::kOffer, offered.ok() ? kSpanOk : uint8_t{0},
                             1, tracer.Nanos(o0), tracer.Nanos(o1),
                             next_vote + 1});
      }
      if (offered.ok()) acked.push_back(o1);
    }
    const TimePoint d0 = Clock::now();
    StatusOr<size_t> drained = system.pipeline->DrainOnce(kVotesPerBatch);
    const TimePoint d1 = Clock::now();
    ++data->other_attempted;
    if (!drained.ok() || drained.value() != acked.size()) {
      ++data->other_failed;
      std::printf("DrainOnce failed: %s\n",
                  drained.ok() ? "short drain"
                               : drained.status().ToString().c_str());
    }
    if (tracer.Active(b)) {
      spans.push_back(Span{Call::kDrainOnce, drained.ok() ? kSpanOk : uint8_t{0},
                           static_cast<uint32_t>(acked.size()),
                           tracer.Nanos(d0), tracer.Nanos(d1), b});
    }
    for (const TimePoint& t : acked) {
      data->vote_visible_ms.push_back(SecondsBetween(t, d1) * 1e3);
      data->vote_visible_end_s.push_back(Stamp(d1));
      data->queue_wait_ms.push_back(SecondsBetween(t, d0) * 1e3);
    }
    data->batch_votes.push_back(static_cast<double>(acked.size()));
    if (drained.ok()) {
      data->vote_rounds.push_back(
          {Stamp(d0), Stamp(d1), static_cast<double>(drained.value())});
    }
    batches->push_back(std::move(batch));

    (void)ServeBatches(ctx, round_indices, 32, 16, &queries);
    if (b + 1 == kMrrAfterBatches) {
      QueryClient mrr_queries;
      data->answer_mrr = ServedMrr(ctx, in, &mrr_queries, data);
      Absorb(&mrr_queries, false, &tracer, data);
    }
    const RegistryTotals before = RegistryTotals::Read();
    CheckpointAndRestart(&system, check_seeds, &tracer, ctx.oracle, data);
    for (const auto& [name, value] :
         RegistryTotals::Read().Minus(before).values) {
      restarts.values[name] += value;
    }
    previous_end = Clock::now();
  }
  tracer.Merge(std::move(spans));
  Absorb(&queries, true, &tracer, data);
  return restarts;
}

}  // namespace

std::string RunHelpdesk(const Args& args, bool* correct) {
  RunData data;
  const std::string dir = args.workdir + "/state-" + args.workload + "-" +
                          std::to_string(getpid());
  const size_t rounds = std::max(
      kMrrAfterBatches, static_cast<size_t>(args.seconds / kSecondsPerBatch));
  std::unique_ptr<HelpdeskInputs> in;
  std::unique_ptr<System> system;
  // Set-up: inputs from the seed, construction, and a cache warm-up over
  // the questions each round serves; repeated, and the median reported.
  TimeSetup(
      7,
      [&] {
        system.reset();
        in.reset();
        const TimePoint t0 = Clock::now();
        in = MakeInputs(args.seed, rounds * kVotesPerBatch);
        system = System::Create(in->env.deployed.graph,
                                &in->env.deployed.answer_nodes,
                                MakeConfig(*in, dir));
        WarmCache(system->engine.get(), in->seeds,
                  std::vector<uint32_t>(
                      in->test_indices.begin(),
                      in->test_indices.begin() + kRoundQuestions));
        return SecondsBetween(t0, Clock::now());
      },
      &data);
  std::printf("%s: seed %" PRIu64 ", %zu nodes, %zu edges, %zu entities, "
              "%zu documents; test questions %zu, votes %zu\n",
              args.workload.c_str(), args.seed,
              in->env.deployed.graph.NumNodes(),
              in->env.deployed.graph.NumEdges(),
              in->env.deployed.num_entities,
              in->env.deployed.answer_nodes.size(), in->test_indices.size(),
              in->env.votes.size());

  telemetry::MetricRegistry::Global().Reset();
  Oracle oracle(&in->env.deployed.answer_nodes, system->config.engine);
  const TimePoint origin = Clock::now();
  data.load_start_s = Stamp(origin);
  Tracer tracer(args.trace, origin);
  LoadContext ctx{system.get(), &in->seeds, &tracer, &oracle};
  const serve::QueryEngine::ServeStats stats0 =
      system->engine->GetServeStats();
  std::vector<std::vector<votes::Vote>> batches;
  const RegistryTotals restarts =
      RunVoteLoop(ctx, *in, rounds, &batches, &data);

  data.votes_applied = system->online->TotalVotesApplied();
  data.serve_window = Minus(system->engine->GetServeStats(), stats0);
  data.registry = RegistryTotals::Read().Minus(restarts);
  data.load_end_s = Stamp(Clock::now());
  std::vector<const ppr::QuerySeed*> replay_seeds;
  for (uint32_t i : in->replay_indices) replay_seeds.push_back(&in->seeds[i]);
  ProbeServe(*system, replay_seeds, &data);
  if (args.trace) ReplayStages(*system, batches, replay_seeds, 4, &data);
  return FinishReport(args, &data, &oracle, &tracer, correct);
}

}  // namespace kgov::perfbench
