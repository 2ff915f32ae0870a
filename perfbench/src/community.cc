// community-stream: the community-locality graph of bench_streaming,
// scaled to 2600 communities (~140k nodes, ~405k edges). Each community
// has 50 entities, 4 answer nodes and 4 query seeds, so a vote's weight
// changes stay inside its community while every flush still pays for the
// whole graph (copy, validate, diff, CSR rebuild).
//
// One producer offers votes open loop at a fixed rate through the WAL-
// backed StreamPipeline; a benchmark-owned consumer calls DrainOnce on
// whatever is queued (the ConsumerLoop policy) and, because the queue is
// FIFO, attributes each vote's visibility to the micro-batch that
// published it. The pipeline checkpoints every 50 micro-batches. Two
// open-loop clients, interleaved, query uniformly over 10.4k seeds (more
// than the cache holds), so misses and invalidation dominate; misses run
// the sparse kernel. After the stream: the vote-answer MRR, then a
// closed-loop phase of full micro-batches back to back, which times the
// write path's capacity for votes_per_s, with a checkpoint and a restart
// after every kRoundsPerRestart of them.

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <set>
#include <thread>

#include "common/rng.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace kgov::perfbench {
namespace {

constexpr size_t kCommunities = 2600;
constexpr size_t kEntitiesPer = 50;
constexpr size_t kAnswersPer = 4;
constexpr size_t kSeedsPer = 4;
constexpr double kVoteRate = 100.0;    // votes per second, open loop
// Queries per second, open loop, split over two clients: a Submit blocks
// its client, so one client at the full rate falls behind its schedule as
// soon as a miss takes more than a millisecond.
constexpr double kQueryRate = 1000.0;
constexpr size_t kMicroBatch = 16;
constexpr size_t kCheckpointEvery = 50;
constexpr size_t kWarmQueries = 2048;
// The closed-loop phase folds a fixed number of micro-batches per second
// of --seconds (a round took 25-45 ms on the measured host) and restarts
// after every kRoundsPerRestart of them (a restart took 100-150 ms).
constexpr double kClosedRoundsPerSecond = 7.0;
constexpr size_t kMinClosedRounds = 40;
constexpr size_t kRoundsPerRestart = 10;

struct CommunityInputs {
  graph::WeightedDigraph graph;
  size_t num_entities = 0;
  std::vector<graph::NodeId> answers;
  std::vector<ppr::QuerySeed> seeds;
  /// Offered in order: the open-loop schedule, the votes that close the
  /// stream (see the consumer), then the closed-loop phase's.
  std::vector<votes::Vote> votes;
};

std::unique_ptr<CommunityInputs> MakeInputs(uint64_t seed, size_t num_votes) {
  auto in = std::make_unique<CommunityInputs>();
  kgov::Rng rng(seed);
  in->num_entities = kCommunities * kEntitiesPer;
  in->graph =
      graph::WeightedDigraph(in->num_entities + kCommunities * kAnswersPer);
  for (size_t c = 0; c < kCommunities; ++c) {
    const auto base = static_cast<graph::NodeId>(c * kEntitiesPer);
    auto entity = [&] {
      return base + static_cast<graph::NodeId>(rng.NextIndex(kEntitiesPer));
    };
    for (size_t i = 0; i < kEntitiesPer; ++i) {
      const graph::NodeId from = base + static_cast<graph::NodeId>(i);
      for (int k = 0; k < 3; ++k) {
        const graph::NodeId to = entity();
        if (to != from) (void)in->graph.AddEdge(from, to, rng.Uniform(0.1, 1.0));
      }
    }
    for (size_t j = 0; j < kAnswersPer; ++j) {
      const auto answer = static_cast<graph::NodeId>(
          in->num_entities + c * kAnswersPer + j);
      in->answers.push_back(answer);
      for (int k = 0; k < 3; ++k) {
        (void)in->graph.AddEdge(entity(), answer, rng.Uniform(0.2, 1.0));
      }
    }
    for (size_t s = 0; s < kSeedsPer; ++s) {
      ppr::QuerySeed q;
      q.links.emplace_back(entity(), rng.Uniform(0.5, 1.0));
      q.links.emplace_back(entity(), rng.Uniform(0.5, 1.0));
      q.Normalize();
      in->seeds.push_back(std::move(q));
    }
  }
  in->graph.NormalizeAllOutWeights();
  // Each vote promotes one answer of a random community, seeded at one of
  // its entities (every answer has at least one in-link).
  for (size_t i = 0; i < num_votes; ++i) {
    const size_t c = rng.NextIndex(kCommunities);
    const auto first =
        static_cast<graph::NodeId>(in->num_entities + c * kAnswersPer);
    votes::Vote vote;
    vote.id = static_cast<uint32_t>(i + 1);
    vote.query.links.emplace_back(
        static_cast<graph::NodeId>(c * kEntitiesPer +
                                   rng.NextIndex(kEntitiesPer)),
        1.0);
    for (size_t a = 0; a < kAnswersPer; ++a) {
      vote.answer_list.push_back(first + static_cast<graph::NodeId>(a));
    }
    vote.best_answer =
        first + static_cast<graph::NodeId>(rng.NextIndex(kAnswersPer));
    in->votes.push_back(std::move(vote));
  }
  return in;
}

SystemConfig MakeConfig(const CommunityInputs& in, const std::string& dir) {
  SystemConfig c;
  c.dir = dir;
  c.num_entities = in.num_entities;
  c.num_documents = in.answers.size();
  // bench_streaming's optimizer settings, with the default split-merge
  // strategy.
  c.optimizer.batch_size = size_t{1} << 20;
  c.optimizer.optimizer.encoder.symbolic.eipd.max_length = 4;
  c.optimizer.optimizer.encoder.symbolic.min_path_mass = 1e-8;
  c.optimizer.optimizer.encoder.is_variable =
      [ne = in.num_entities](const graph::WeightedDigraph& g,
                             graph::EdgeId e) {
        return g.edges()[e].from < ne && g.edges()[e].to < ne;
      };
  c.optimizer.optimizer.apply_judgment_filter = false;
  c.engine.eipd.max_length = 4;
  c.engine.top_k = 10;
  c.engine.num_threads = 2;
  c.pipeline.micro_batch_size = kMicroBatch;
  c.pipeline.checkpoint_every_batches = kCheckpointEvery;
  return c;
}

/// Shared state of the producer and the consumer. The queue is FIFO and
/// there is one producer, so the k-th accepted Offer is the k-th vote the
/// pipeline drains.
struct Stream {
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<size_t> accepted{0};  // votes acknowledged (in FIFO order)
  std::atomic<size_t> attempted{0};
  std::atomic<bool> producer_done{false};
  std::vector<TimePoint> acked;    // per accepted vote
  std::vector<TimePoint> drained;  // per accepted vote
  std::vector<TimePoint> visible;  // per accepted vote
  std::vector<size_t> vote_index;  // accepted vote -> inputs index
};

bool OfferOne(System& system, const CommunityInputs& in, Tracer& tracer,
              size_t index, Stream* st, std::vector<Span>* spans) {
  const TimePoint o0 = Clock::now();
  Status offered = system.pipeline->Offer(in.votes[index]);
  const TimePoint o1 = Clock::now();
  st->attempted.fetch_add(1);
  if (tracer.Active(in.votes[index].id)) {
    spans->push_back(Span{Call::kOffer, offered.ok() ? kSpanOk : uint8_t{0},
                          1, tracer.Nanos(o0), tracer.Nanos(o1),
                          in.votes[index].id});
  }
  if (!offered.ok()) return false;
  const size_t seq = st->accepted.load();
  st->acked[seq] = o1;
  st->vote_index[seq] = index;
  {
    std::lock_guard<std::mutex> lock(st->mu);
    st->accepted.store(seq + 1);
  }
  st->cv.notify_one();
  return true;
}

}  // namespace

std::string RunCommunityStream(const Args& args, bool* correct) {
  RunData data;
  const std::string dir = args.workdir + "/state-" + args.workload + "-" +
                          std::to_string(getpid());
  const double S = args.seconds;
  const double window = 0.6 * S;
  const size_t scheduled_votes = static_cast<size_t>(kVoteRate * window);
  const size_t closing_votes = 16;
  const size_t drain_first = scheduled_votes + closing_votes;
  const size_t closed_rounds = std::max(
      kMinClosedRounds, static_cast<size_t>(kClosedRoundsPerSecond * S));

  // Seeds spread over the communities (uniform traffic has no head).
  std::vector<uint32_t> warm(kWarmQueries);
  for (size_t i = 0; i < warm.size(); ++i) {
    warm[i] = static_cast<uint32_t>(i * 5);
  }
  std::unique_ptr<CommunityInputs> in;
  std::unique_ptr<System> system;
  TimeSetup(
      7,
      [&] {
        system.reset();
        in.reset();
        const TimePoint t0 = Clock::now();
        in = MakeInputs(args.seed,
                        drain_first + closed_rounds * kMicroBatch);
        system = System::Create(in->graph, &in->answers, MakeConfig(*in, dir));
        WarmCache(system->engine.get(), in->seeds, warm);
        return SecondsBetween(t0, Clock::now());
      },
      &data);
  std::printf("%s: seed %" PRIu64 ", %zu nodes, %zu edges, %zu communities, "
              "%zu query seeds, %zu candidates; %.0f votes/s and %.0f "
              "queries/s for %.1f s\n",
              args.workload.c_str(), args.seed, in->graph.NumNodes(),
              in->graph.NumEdges(), kCommunities, in->seeds.size(),
              in->answers.size(), kVoteRate, kQueryRate, window);

  telemetry::MetricRegistry::Global().Reset();
  System& sys = *system;
  Oracle oracle(&in->answers, sys.config.engine);
  const TimePoint origin = Clock::now();
  data.load_start_s = Stamp(origin);
  Tracer tracer(args.trace, origin);
  LoadContext ctx{&sys, &in->seeds, &tracer, &oracle};
  const serve::QueryEngine::ServeStats stats0 = sys.engine->GetServeStats();

  Stream st;
  st.acked.resize(drain_first);
  st.drained.resize(drain_first);
  st.visible.resize(drain_first);
  st.vote_index.resize(drain_first);
  const TimePoint start = After(Clock::now(), 0.005);
  const TimePoint end = After(start, window);
  std::vector<double> producer_late_ms;
  std::vector<Span> producer_spans;

  std::thread producer([&] {
    UseFineTimerSlack();
    for (size_t i = 0; i < scheduled_votes; ++i) {
      const TimePoint scheduled = After(start, static_cast<double>(i) / kVoteRate);
      if (scheduled >= end) break;
      WaitUntil(scheduled);
      producer_late_ms.push_back(
          SecondsBetween(scheduled, Clock::now()) * 1e3);
      OfferOne(sys, *in, tracer, i, &st, &producer_spans);
    }
    {
      std::lock_guard<std::mutex> lock(st.mu);
      st.producer_done.store(true);
    }
    st.cv.notify_one();
  });

  // The consumer: DrainOnce on whatever is queued. Votes a checkpoint
  // moved into the optimizer's pending buffer are applied by the next
  // micro-batch, which the stream's tail always provides.
  std::vector<Span> consumer_spans;
  std::vector<double> batch_votes;
  uint64_t drains = 0;
  uint64_t drain_failures = 0;
  std::thread consumer([&] {
    telemetry::Histogram* checkpoint_span =
        telemetry::MetricRegistry::Global().GetHistogram(
            "span.durability.checkpoint.seconds");
    size_t next = 0;     // first accepted vote not yet drained
    size_t carried = 0;  // votes a checkpoint parked as pending
    size_t next_closing = scheduled_votes;
    size_t batch = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(st.mu);
        st.cv.wait(lock, [&] {
          return st.accepted.load() > next + carried ||
                 st.producer_done.load();
        });
      }
      if (st.accepted.load() <= next + carried) {
        // Producer finished and nothing is queued.
        if (carried == 0 && sys.online->PendingVotes() == 0) break;
        if (next_closing >= drain_first) break;
        OfferOne(sys, *in, tracer, next_closing++, &st, &consumer_spans);
        continue;
      }
      const uint64_t processed0 = sys.pipeline->GetStats().votes_processed;
      const double checkpoint0 = checkpoint_span->Snapshot().sum;
      const TimePoint d0 = Clock::now();
      StatusOr<size_t> drained = sys.pipeline->DrainOnce(kMicroBatch);
      const TimePoint d1 = Clock::now();
      const uint64_t processed1 = sys.pipeline->GetStats().votes_processed;
      const double checkpoint_s = checkpoint_span->Snapshot().sum - checkpoint0;
      ++drains;
      if (!drained.ok()) {
        // The batch stays pending in the optimizer (its visibility goes
        // unrecorded); keep draining so the producer never blocks on a
        // full queue. The run is marked failed.
        ++drain_failures;
        std::printf("DrainOnce failed: %s\n",
                    drained.status().ToString().c_str());
        next += carried + static_cast<size_t>(processed1 - processed0);
        carried = 0;
        continue;
      }
      const size_t n = drained.value();
      // The epoch was published before the checkpoint that may follow the
      // flush inside DrainOnce.
      const TimePoint visible = After(d1, -checkpoint_s);
      for (size_t s = next; s < next + carried + n; ++s) st.visible[s] = visible;
      for (size_t s = next + carried; s < next + carried + n; ++s) {
        st.drained[s] = d0;
      }
      batch_votes.push_back(static_cast<double>(carried + n));
      if (tracer.Active(batch)) {
        consumer_spans.push_back(Span{Call::kDrainOnce, kSpanOk,
                                      static_cast<uint32_t>(n),
                                      tracer.Nanos(d0), tracer.Nanos(d1),
                                      batch});
        if (checkpoint_s > 0.0) {
          consumer_spans.push_back(Span{Call::kCheckpoint, kSpanOk, 0,
                                        tracer.Nanos(visible),
                                        tracer.Nanos(d1), batch});
        }
      }
      next += carried + n;
      carried = static_cast<size_t>(processed1 - processed0) - n;
      ++batch;
    }
  });

  std::vector<std::vector<uint32_t>> query_sequences;
  std::vector<QueryClient> clients(2);
  for (size_t i = 0; i < clients.size(); ++i) {
    query_sequences.push_back(UniformSequence(
        in->seeds.size(), static_cast<size_t>(kQueryRate * window) + 16,
        args.seed * 7919 + i));
  }
  for (size_t i = 0; i < clients.size(); ++i) {
    clients[i].rate = kQueryRate / 2;
    clients[i].start = After(start, static_cast<double>(i) / kQueryRate);
    clients[i].end = end;
    clients[i].sequence = &query_sequences[i];
    clients[i].oracle_every = 32;
    clients[i].request_base = uint64_t{i} << 32;
  }
  RunQueryClients(ctx, &clients);
  producer.join();
  consumer.join();
  for (QueryClient& c : clients) Absorb(&c, true, &tracer, &data);

  // Vote results.
  const size_t accepted = st.accepted.load();
  data.votes_offered = st.attempted.load();
  for (size_t s = 0; s < accepted; ++s) {
    if (st.visible[s] == TimePoint{}) continue;
    data.vote_visible_ms.push_back(SecondsBetween(st.acked[s], st.visible[s]) *
                                   1e3);
    data.vote_visible_end_s.push_back(Stamp(st.visible[s]));
    if (st.drained[s] != TimePoint{}) {
      data.queue_wait_ms.push_back(
          SecondsBetween(st.acked[s], st.drained[s]) * 1e3);
    }
  }
  data.late_ms.insert(data.late_ms.end(), producer_late_ms.begin(),
                      producer_late_ms.end());
  data.batch_votes = std::move(batch_votes);
  data.other_attempted += drains;
  data.other_failed += drain_failures;
  tracer.Merge(std::move(producer_spans));
  tracer.Merge(std::move(consumer_spans));

  // Vote-answer MRR on the epoch the stream ended on: the rank of each
  // distinct vote's best answer in the served ranking of its query.
  {
    std::set<std::pair<graph::NodeId, graph::NodeId>> seen;
    std::vector<ppr::QuerySeed> vote_seeds;
    std::vector<graph::NodeId> best;
    for (size_t s = 0; s < accepted; ++s) {
      const votes::Vote& v = in->votes[st.vote_index[s]];
      if (seen.insert({v.query.links[0].first, v.best_answer}).second) {
        vote_seeds.push_back(v.query);
        best.push_back(v.best_answer);
      }
    }
    std::vector<uint32_t> indices(vote_seeds.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      indices[i] = static_cast<uint32_t>(i);
    }
    LoadContext vote_ctx = ctx;
    vote_ctx.seeds = &vote_seeds;
    QueryClient sink;
    data.answer_mrr = MeanReciprocalRank(
        ServeBatches(vote_ctx, indices, 64, 4, &sink), best);
    // The oracle must finish with vote_seeds alive.
    oracle.Finish();
    Absorb(&sink, false, &tracer, &data);
  }

  data.serve_window = Minus(sys.engine->GetServeStats(), stats0);
  data.registry = RegistryTotals::Read();

  // Closed-loop phase: Offer x16 then DrainOnce, back to back, so every
  // micro-batch is full and the DrainOnce time is the write path's cost
  // per batch. A checkpoint the cadence runs inside DrainOnce is left out,
  // as for the stream's visibility. Every kRoundsPerRestart rounds the
  // deployment is checkpointed and restarted, so the restarts and the
  // micro-batches sample the same stretch of the run.
  std::vector<const ppr::QuerySeed*> check_seeds;
  for (size_t i = 0; i < 8; ++i) check_seeds.push_back(&in->seeds[i * 1297]);
  {
    telemetry::Histogram* checkpoint_span =
        telemetry::MetricRegistry::Global().GetHistogram(
            "span.durability.checkpoint.seconds");
    size_t next_vote = drain_first;
    for (size_t round = 0; round < closed_rounds; ++round) {
      if (round % kRoundsPerRestart == kRoundsPerRestart - 1) {
        CheckpointAndRestart(&sys, check_seeds, &tracer, &oracle, &data);
      }
      size_t acked = 0;
      for (size_t i = 0; i < kMicroBatch; ++i, ++next_vote) {
        ++data.votes_offered;
        if (sys.pipeline->Offer(in->votes[next_vote]).ok()) ++acked;
      }
      const double checkpoint0 = checkpoint_span->Snapshot().sum;
      const TimePoint d0 = Clock::now();
      StatusOr<size_t> drained = sys.pipeline->DrainOnce(kMicroBatch);
      const TimePoint d1 = Clock::now();
      const double checkpoint_s = checkpoint_span->Snapshot().sum - checkpoint0;
      ++data.other_attempted;
      if (!drained.ok() || drained.value() != acked) {
        ++data.other_failed;
        std::printf("closed-loop phase: DrainOnce failed: %s\n",
                    drained.ok() ? "short drain"
                                 : drained.status().ToString().c_str());
        continue;
      }
      const TimePoint published = After(d1, -checkpoint_s);
      data.vote_rounds.push_back(
          {Stamp(d0), Stamp(published), static_cast<double>(acked)});
    }
  }
  data.votes_applied = sys.online->TotalVotesApplied();
  data.load_end_s = Stamp(Clock::now());
  std::vector<const ppr::QuerySeed*> replay_seeds;
  for (size_t i = 0; i < 256; ++i) replay_seeds.push_back(&in->seeds[i * 37]);
  ProbeServe(sys, replay_seeds, &data);
  if (args.trace) {
    std::vector<std::vector<votes::Vote>> batches;
    for (size_t b = 0; b + 8 <= accepted && batches.size() < 16; b += 8) {
      batches.emplace_back();
      for (size_t s = b; s < b + 8; ++s) {
        batches.back().push_back(in->votes[st.vote_index[s]]);
      }
    }
    ReplayStages(sys, batches, replay_seeds, 16, &data);
  }
  return FinishReport(args, &data, &oracle, &tracer, correct);
}

}  // namespace kgov::perfbench
