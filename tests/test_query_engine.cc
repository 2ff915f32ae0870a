#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "core/online_optimizer.h"
#include "ppr/eipd_engine.h"
#include "ppr/query_seed.h"
#include "ppr/ranking.h"
#include "eipd_reference.h"

namespace kgov::serve {
namespace {

using core::OnlineKgOptimizer;
using core::OnlineOptimizerOptions;
using graph::WeightedDigraph;

WeightedDigraph MakeFixture() {
  WeightedDigraph g(5);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.4).ok());
  EXPECT_TRUE(g.AddEdge(1, 3, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(2, 4, 1.0).ok());
  return g;
}

votes::Vote MakeVote(graph::NodeId best, uint32_t id) {
  votes::Vote vote;
  vote.id = id;
  vote.query.links.emplace_back(0, 1.0);
  vote.answer_list = {3, 4};
  vote.best_answer = best;
  return vote;
}

OnlineOptimizerOptions SmallOnlineOptions() {
  OnlineOptimizerOptions options;
  options.batch_size = 100;  // flush explicitly
  options.optimizer.encoder.symbolic.eipd.max_length = 4;
  options.optimizer.apply_judgment_filter = false;
  options.strategy = core::FlushStrategy::kMultiVote;
  return options;
}

QueryEngineOptions SmallEngineOptions() {
  QueryEngineOptions options;
  options.eipd.max_length = 4;
  options.top_k = 2;
  options.num_threads = 2;
  return options;
}

const std::vector<graph::NodeId>& Candidates() {
  static const std::vector<graph::NodeId> c = {3, 4};
  return c;
}

/// Deterministic query stream: seeds over source nodes {0, 1, 2} with
/// pseudo-random (but seeded, hence replayable) link weights.
std::vector<ppr::QuerySeed> SeededStream(size_t count, uint64_t rng_seed) {
  std::mt19937_64 rng(rng_seed);
  std::uniform_real_distribution<double> weight(0.1, 1.0);
  std::vector<ppr::QuerySeed> seeds;
  seeds.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ppr::QuerySeed seed;
    const graph::NodeId first = static_cast<graph::NodeId>(rng() % 3);
    seed.links.emplace_back(first, weight(rng));
    if (rng() % 2 == 0) {
      seed.links.emplace_back((first + 1) % 3, weight(rng));
    }
    seed.Normalize();
    seeds.push_back(std::move(seed));
  }
  return seeds;
}

bool BitwiseEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Bitwise comparison of two rankings (node ids and raw score bits).
void ExpectIdenticalAnswers(const std::vector<ppr::ScoredAnswer>& a,
                            const std::vector<ppr::ScoredAnswer>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node) << "rank " << i;
    EXPECT_TRUE(BitwiseEqual(a[i].score, b[i].score))
        << "rank " << i << ": " << a[i].score << " vs " << b[i].score;
  }
}

TEST(QueryEngineTest, CreateFailsFastNamingTheField) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());

  QueryEngineOptions bad = SmallEngineOptions();
  bad.top_k = 0;
  auto engine_or = QueryEngine::Create(&online, &Candidates(), bad);
  ASSERT_FALSE(engine_or.ok());
  EXPECT_EQ(engine_or.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(engine_or.status().message().find("top_k"), std::string::npos)
      << engine_or.status().message();

  auto null_source = QueryEngine::Create(nullptr, &Candidates(),
                                         SmallEngineOptions());
  EXPECT_FALSE(null_source.ok());

  auto null_candidates =
      QueryEngine::Create(&online, nullptr, SmallEngineOptions());
  EXPECT_FALSE(null_candidates.ok());

  QueryEngineOptions bad_admission = SmallEngineOptions();
  bad_admission.admission.capacity = 0;
  auto admission_or =
      QueryEngine::Create(&online, &Candidates(), bad_admission);
  ASSERT_FALSE(admission_or.ok());
  EXPECT_NE(admission_or.status().message().find("capacity"),
            std::string::npos)
      << admission_or.status().message();
}

TEST(QueryEngineTest, RepeatSubmitIsServedFromCacheBitwiseIdentical) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  auto engine_or =
      QueryEngine::Create(&online, &Candidates(), SmallEngineOptions());
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  ppr::QuerySeed seed = ppr::QuerySeed::UniformOver({0});
  StatusOr<RankedAnswers> first = engine.Submit(seed);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->from_cache);
  EXPECT_EQ(first->epoch, 0u);
  ASSERT_EQ(first->answers.size(), 2u);

  StatusOr<RankedAnswers> second = engine.Submit(seed);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->from_cache);
  ExpectIdenticalAnswers(first->answers, second->answers);

  ShardedResultCache::Stats stats = engine.CacheStats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.misses, 1u);
}

TEST(QueryEngineTest, InvalidSeedReturnsErrorNotCrash) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  auto engine_or =
      QueryEngine::Create(&online, &Candidates(), SmallEngineOptions());
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();

  ppr::QuerySeed out_of_range;
  out_of_range.links.emplace_back(999, 1.0);
  StatusOr<RankedAnswers> served = (*engine_or)->Submit(out_of_range);
  EXPECT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryEngineTest, CacheOnAndOffIdenticalAcrossEpochSwaps) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());

  QueryEngineOptions cached = SmallEngineOptions();
  QueryEngineOptions uncached = SmallEngineOptions();
  uncached.enable_cache = false;

  auto cached_or = QueryEngine::Create(&online, &Candidates(), cached);
  auto uncached_or = QueryEngine::Create(&online, &Candidates(), uncached);
  ASSERT_TRUE(cached_or.ok()) << cached_or.status();
  ASSERT_TRUE(uncached_or.ok()) << uncached_or.status();
  QueryEngine& with_cache = **cached_or;
  QueryEngine& without_cache = **uncached_or;

  const std::vector<ppr::QuerySeed> stream = SeededStream(24, 0xC0FFEE);

  // Serve the stream twice on the cached engine (second pass hits), once
  // on the uncached engine; every ranking must be bitwise identical.
  auto serve_and_compare = [&](uint64_t expect_epoch) {
    std::vector<StatusOr<RankedAnswers>> fresh =
        without_cache.SubmitBatch(stream);
    std::vector<StatusOr<RankedAnswers>> pass1 =
        with_cache.SubmitBatch(stream);
    std::vector<StatusOr<RankedAnswers>> pass2 =
        with_cache.SubmitBatch(stream);
    ASSERT_EQ(fresh.size(), stream.size());
    for (size_t i = 0; i < stream.size(); ++i) {
      ASSERT_TRUE(fresh[i].ok()) << fresh[i].status();
      ASSERT_TRUE(pass1[i].ok()) << pass1[i].status();
      ASSERT_TRUE(pass2[i].ok()) << pass2[i].status();
      EXPECT_EQ(fresh[i]->epoch, expect_epoch);
      EXPECT_EQ(pass1[i]->epoch, expect_epoch);
      EXPECT_EQ(pass2[i]->epoch, expect_epoch);
      EXPECT_FALSE(fresh[i]->from_cache);
      // The replay is served from the cache (duplicate seeds may make
      // some pass1 entries hits too, which is fine).
      EXPECT_TRUE(pass2[i]->from_cache);
      ExpectIdenticalAnswers(fresh[i]->answers, pass1[i]->answers);
      ExpectIdenticalAnswers(fresh[i]->answers, pass2[i]->answers);
    }
  };

  serve_and_compare(/*expect_epoch=*/0);

  // Epoch swap: fold a vote in, then re-serve the same stream. Both
  // engines must re-pin epoch 1 and agree again (the cached engine must
  // not leak epoch-0 rankings).
  ASSERT_TRUE(online.AddVote(MakeVote(4, 0)).ok());
  ASSERT_TRUE(online.Flush().ok());
  serve_and_compare(/*expect_epoch=*/1);

  ASSERT_TRUE(online.AddVote(MakeVote(3, 1)).ok());
  ASSERT_TRUE(online.Flush().ok());
  serve_and_compare(/*expect_epoch=*/2);

  EXPECT_EQ(with_cache.PinnedEpochNumber(), 2u);
  EXPECT_EQ(without_cache.PinnedEpochNumber(), 2u);
}

TEST(QueryEngineTest, FaultedFlushLeavesServingOnOldEpoch) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  auto engine_or =
      QueryEngine::Create(&online, &Candidates(), SmallEngineOptions());
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  ppr::QuerySeed seed = ppr::QuerySeed::UniformOver({0});
  StatusOr<RankedAnswers> before = engine.Submit(seed);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->epoch, 0u);

  // A corrupted optimization result must roll back: the engine keeps
  // serving the pinned epoch-0 rankings, bit for bit.
  ASSERT_TRUE(online.AddVote(MakeVote(4, 0)).ok());
  {
    ScopedFault fault(FaultSite::kGraphCorruption,
                      {.probability = 1.0, .max_fires = 1});
    Result<core::FlushReport> r = online.Flush();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(online.RollbackCount(), 1u);
  EXPECT_EQ(online.CurrentEpochNumber(), 0u);

  StatusOr<RankedAnswers> during = engine.Submit(seed);
  ASSERT_TRUE(during.ok()) << during.status();
  EXPECT_EQ(during->epoch, 0u);
  EXPECT_EQ(engine.PinnedEpochNumber(), 0u);
  ExpectIdenticalAnswers(before->answers, during->answers);

  // With the fault gone the retry publishes epoch 1 and the engine
  // re-pins on the next query.
  ASSERT_TRUE(online.Flush().ok());
  StatusOr<RankedAnswers> after = engine.Submit(seed);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->epoch, 1u);
  EXPECT_EQ(engine.PinnedEpochNumber(), 1u);
}

TEST(QueryEngineTest, ConcurrentFlushAndServeStress) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  auto engine_or =
      QueryEngine::Create(&online, &Candidates(), SmallEngineOptions());
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  constexpr int kFlushes = 20;
  std::atomic<bool> stop{false};
  std::atomic<int> serve_errors{0};
  std::atomic<int> epoch_regressions{0};

  // Client threads hammer Submit while the optimizer flushes. Served
  // epochs must never go backwards from any single client's view.
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&, t]() {
      const std::vector<ppr::QuerySeed> stream =
          SeededStream(8, 0xBEEF + static_cast<uint64_t>(t));
      uint64_t last_epoch = 0;
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        StatusOr<RankedAnswers> served =
            engine.Submit(stream[i++ % stream.size()]);
        if (!served.ok()) {
          serve_errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (served->epoch < last_epoch) {
          epoch_regressions.fetch_add(1, std::memory_order_relaxed);
        }
        last_epoch = served->epoch;
      }
    });
  }

  for (uint32_t i = 0; i < kFlushes; ++i) {
    ASSERT_TRUE(online.AddVote(MakeVote(i % 2 == 0 ? 4 : 3, i)).ok());
    ASSERT_TRUE(online.Flush().ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(serve_errors.load(), 0);
  EXPECT_EQ(epoch_regressions.load(), 0);
  EXPECT_EQ(online.CurrentEpochNumber(), static_cast<uint64_t>(kFlushes));

  // The next query re-pins the final epoch and serves from it.
  StatusOr<RankedAnswers> final_result =
      engine.Submit(ppr::QuerySeed::UniformOver({0}));
  ASSERT_TRUE(final_result.ok()) << final_result.status();
  EXPECT_EQ(final_result->epoch, static_cast<uint64_t>(kFlushes));
  EXPECT_EQ(engine.PinnedEpochNumber(), static_cast<uint64_t>(kFlushes));
}

TEST(QueryEngineTest, ConcurrentColdMissesCollapseOntoOneLeader) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  auto engine_or =
      QueryEngine::Create(&online, &Candidates(), SmallEngineOptions());
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  // Cold single-threaded reference, cache and single-flight off.
  QueryEngineOptions cold_options = SmallEngineOptions();
  cold_options.enable_cache = false;
  cold_options.enable_single_flight = false;
  cold_options.num_threads = 1;
  auto cold_or = QueryEngine::Create(&online, &Candidates(), cold_options);
  ASSERT_TRUE(cold_or.ok()) << cold_or.status();
  StatusOr<RankedAnswers> reference =
      (*cold_or)->Submit(ppr::QuerySeed::UniformOver({0}));
  ASSERT_TRUE(reference.ok()) << reference.status();

  // A flash crowd: K threads submit the identical cold query at once.
  constexpr int kThreads = 8;
  std::vector<std::optional<StatusOr<RankedAnswers>>> results(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t]() {
      while (!go.load(std::memory_order_relaxed)) std::this_thread::yield();
      results[t].emplace(engine.Submit(ppr::QuerySeed::UniformOver({0})));
    });
  }
  go.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].has_value());
    ASSERT_TRUE(results[t]->ok()) << results[t]->status();
    ExpectIdenticalAnswers(reference->answers, (**results[t]).answers);
  }

  // Exactly ONE propagation ran; every other query was a cache hit or a
  // coalesced follower. This is the counter-verified dedup invariant the
  // CI smoke gate also enforces.
  QueryEngine::ServeStats stats = engine.GetServeStats();
  EXPECT_EQ(stats.queries, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.leaders, 1u);
  EXPECT_EQ(stats.hits + stats.followers, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(QueryEngineTest, SubmitBatchWithDuplicateSeedsMatchesColdRank) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  QueryEngineOptions options = SmallEngineOptions();
  auto engine_or = QueryEngine::Create(&online, &Candidates(), options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  // 8 distinct seeds, each submitted 4 times in one batch (interleaved,
  // so duplicates run concurrently on the pool).
  const std::vector<ppr::QuerySeed> distinct = SeededStream(8, 0xD0B1E);
  std::vector<ppr::QuerySeed> batch;
  for (int copy = 0; copy < 4; ++copy) {
    batch.insert(batch.end(), distinct.begin(), distinct.end());
  }
  std::vector<StatusOr<RankedAnswers>> results = engine.SubmitBatch(batch);
  ASSERT_EQ(results.size(), batch.size());

  const core::ServingEpoch epoch = online.CurrentEpoch();
  ppr::EipdEngine cold(epoch.view(), options.eipd);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status();
    EXPECT_EQ(results[i]->epoch, epoch.epoch);
    ppr::PropagationWorkspace fresh;
    StatusOr<std::vector<ppr::ScoredAnswer>> expected =
        cold.Rank(batch[i], Candidates(), options.top_k, &fresh);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ExpectIdenticalAnswers(*expected, results[i]->answers);
  }

  // Duplicates collapse through single-flight and the cache: every query
  // has exactly one outcome, and the engine ran exactly one propagation
  // per distinct cache key.
  std::set<std::string> keys;
  for (const ppr::QuerySeed& seed : distinct) keys.insert(EncodeCacheKey(seed));
  QueryEngine::ServeStats stats = engine.GetServeStats();
  EXPECT_EQ(stats.queries, batch.size());
  EXPECT_EQ(stats.hits + stats.misses + stats.followers + stats.shed +
                stats.errors,
            stats.queries);
  EXPECT_EQ(stats.misses, keys.size());
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(QueryEngineTest, OutcomeAccountingIdentityHoldsUnderConcurrentLoad) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  auto engine_or =
      QueryEngine::Create(&online, &Candidates(), SmallEngineOptions());
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  constexpr int kClients = 4;
  constexpr int kReps = 3;
  constexpr size_t kBatch = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      // Overlapping streams: duplicates within and across threads force
      // hits, leaders, and followers to all occur.
      const std::vector<ppr::QuerySeed> stream =
          SeededStream(kBatch, 0xFEED + static_cast<uint64_t>(t % 2));
      for (int rep = 0; rep < kReps; ++rep) {
        std::vector<StatusOr<RankedAnswers>> results =
            engine.SubmitBatch(stream);
        for (const StatusOr<RankedAnswers>& r : results) {
          if (!r.ok()) failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every query resolves to exactly one outcome: the books must balance
  // to the query count with nothing double- or un-counted. (This is the
  // accounting the old code got wrong: collapsed duplicates all bumped
  // serve.cache.misses even though only one propagation ran.)
  QueryEngine::ServeStats stats = engine.GetServeStats();
  EXPECT_EQ(stats.queries,
            static_cast<uint64_t>(kClients) * kReps * kBatch);
  EXPECT_EQ(stats.hits + stats.misses + stats.followers + stats.shed +
                stats.errors,
            stats.queries);
  EXPECT_EQ(stats.leaders + stats.timeouts, stats.misses);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.leaders, 0u);
}

TEST(QueryEngineTest, EpochSwapRacedAgainstCoalescedMissesNeverMixesPins) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  auto engine_or =
      QueryEngine::Create(&online, &Candidates(), SmallEngineOptions());
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  // Property: under racing epoch swaps, every served ranking is bitwise
  // identical to a cold propagation on the epoch it CLAIMS - a follower
  // can never receive a result computed under a different pin (the
  // flight key embeds the epoch), and the acquire-probe re-pin can never
  // hand out a stale-epoch ranking for a fresh pin.
  struct Observation {
    size_t seed_index;
    uint64_t epoch;
    std::vector<ppr::ScoredAnswer> answers;
  };
  const std::vector<ppr::QuerySeed> shared_stream = SeededStream(6, 0xE9);
  constexpr int kRounds = 5;
  constexpr int kClients = 3;
  constexpr int kReps = 5;

  for (int round = 0; round < kRounds; ++round) {
    const core::ServingEpoch before = online.CurrentEpoch();
    std::vector<std::vector<Observation>> observed(kClients);
    std::atomic<int> failures{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t]() {
        while (!go.load(std::memory_order_relaxed)) {
          std::this_thread::yield();
        }
        for (int rep = 0; rep < kReps; ++rep) {
          for (size_t s = 0; s < shared_stream.size(); ++s) {
            StatusOr<RankedAnswers> served =
                engine.Submit(shared_stream[s]);
            if (!served.ok()) {
              failures.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            observed[t].push_back(
                Observation{s, served->epoch, std::move(served->answers)});
          }
        }
      });
    }
    go.store(true, std::memory_order_relaxed);
    // Swap the epoch mid-traffic.
    ASSERT_TRUE(
        online.AddVote(MakeVote(round % 2 == 0 ? 4 : 3,
                                static_cast<uint32_t>(round)))
            .ok());
    ASSERT_TRUE(online.Flush().ok());
    for (std::thread& t : clients) t.join();
    ASSERT_EQ(failures.load(), 0);
    const core::ServingEpoch after = online.CurrentEpoch();
    ASSERT_EQ(after.epoch, before.epoch + 1);

    // Cold references on both epochs a query could have pinned.
    ppr::EipdEngine cold_before(before.view(),
                                SmallEngineOptions().eipd);
    ppr::EipdEngine cold_after(after.view(), SmallEngineOptions().eipd);
    for (const std::vector<Observation>& thread_obs : observed) {
      for (const Observation& obs : thread_obs) {
        ASSERT_TRUE(obs.epoch == before.epoch || obs.epoch == after.epoch)
            << "served epoch " << obs.epoch << " outside [" << before.epoch
            << ", " << after.epoch << "]";
        ppr::EipdEngine& cold =
            obs.epoch == before.epoch ? cold_before : cold_after;
        StatusOr<std::vector<ppr::ScoredAnswer>> reference = cold.Rank(
            shared_stream[obs.seed_index], Candidates(),
            SmallEngineOptions().top_k);
        ASSERT_TRUE(reference.ok()) << reference.status();
        ExpectIdenticalAnswers(*reference, obs.answers);
      }
    }
  }
}

TEST(QueryEngineTest, FullAdmissionWindowShedsWithResourceExhausted) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  QueryEngineOptions options = SmallEngineOptions();
  options.admission.capacity = 2;
  auto engine_or = QueryEngine::Create(&online, &Candidates(), options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  // SubmitBatch admits every query BEFORE enqueuing any work, so with
  // capacity 2 a 32-query batch deterministically admits exactly 2 and
  // sheds exactly 30 - each shed immediately, with kResourceExhausted,
  // never parked on the full window.
  const std::vector<ppr::QuerySeed> stream = SeededStream(32, 0x5EED);
  std::vector<StatusOr<RankedAnswers>> results = engine.SubmitBatch(stream);
  ASSERT_EQ(results.size(), stream.size());
  size_t served = 0;
  size_t shed = 0;
  for (const StatusOr<RankedAnswers>& r : results) {
    if (r.ok()) {
      ++served;
      EXPECT_FALSE(r->answers.empty());
    } else {
      ++shed;
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    }
  }
  EXPECT_EQ(served, 2u);
  EXPECT_EQ(shed, 30u);

  QueryEngine::ServeStats stats = engine.GetServeStats();
  EXPECT_EQ(stats.shed, 30u);
  EXPECT_EQ(stats.hits + stats.misses + stats.followers + stats.shed +
                stats.errors,
            stats.queries);
  EXPECT_EQ(engine.AdmissionStats().admitted, 2u);

  // The window drained: the next query is admitted and served normally.
  StatusOr<RankedAnswers> after =
      engine.Submit(ppr::QuerySeed::UniformOver({0}));
  ASSERT_TRUE(after.ok()) << after.status();
}

TEST(QueryEngineTest, DegradedModeServesValidShorterWalksAndNeverCaches) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  QueryEngineOptions options = SmallEngineOptions();
  options.num_threads = 1;
  options.admission.slo_seconds = 1e-9;  // any real latency breaches it
  options.admission.ewma_alpha = 1.0;
  options.admission.degraded_max_length = 2;
  auto engine_or = QueryEngine::Create(&online, &Candidates(), options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  // The first query is served healthy (no latency sample yet) at full
  // depth and cached; its Finish pushes the EWMA over the SLO.
  const ppr::QuerySeed seed_a = ppr::QuerySeed::UniformOver({0});
  StatusOr<RankedAnswers> first = engine.Submit(seed_a);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->degraded);
  ASSERT_TRUE(engine.Degraded());
  EXPECT_GE(engine.AdmissionStats().degraded_entered, 1u);

  // A degraded miss is served at degraded_max_length: still a valid
  // ranking, bitwise identical to a cold walk of that shorter depth.
  const ppr::QuerySeed seed_b = ppr::QuerySeed::UniformOver({1});
  StatusOr<RankedAnswers> degraded = engine.Submit(seed_b);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_TRUE(degraded->degraded);
  EXPECT_FALSE(degraded->from_cache);
  ppr::EipdOptions short_walk = options.eipd;
  short_walk.max_length = options.admission.degraded_max_length;
  ppr::EipdEngine cold(online.CurrentEpoch().view(), short_walk);
  StatusOr<std::vector<ppr::ScoredAnswer>> reference =
      cold.Rank(seed_b, Candidates(), options.top_k);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ExpectIdenticalAnswers(*reference, degraded->answers);

  // Degraded rankings are never cached: re-asking recomputes (no hit),
  // because a shallow ranking must not masquerade as the full-depth one.
  StatusOr<RankedAnswers> again = engine.Submit(seed_b);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_FALSE(again->from_cache);
  EXPECT_TRUE(again->degraded);

  // Entries cached BEFORE degradation still serve (at full depth).
  StatusOr<RankedAnswers> cached = engine.Submit(seed_a);
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_TRUE(cached->from_cache);
  EXPECT_FALSE(cached->degraded);
  ExpectIdenticalAnswers(first->answers, cached->answers);

  QueryEngine::ServeStats stats = engine.GetServeStats();
  EXPECT_GE(stats.degraded, 2u);
}

TEST(QueryEngineTest, SparseKernelServesIdenticalToDenseAtZeroThreshold) {
  // The serve path adds nothing to the kernel's arithmetic: with
  // sparse_threshold == 0 every served ranking is bitwise the top-k of
  // the test-only reference walk-sum on the pinned epoch.
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  QueryEngineOptions options = SmallEngineOptions();
  options.eipd.sparse_threshold = 0.0;
  auto engine_or = QueryEngine::Create(&online, &Candidates(), options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();

  const core::ServingEpoch epoch = online.CurrentEpoch();
  for (const ppr::QuerySeed& seed : SeededStream(32, 77)) {
    StatusOr<RankedAnswers> served = (*engine_or)->Submit(seed);
    ASSERT_TRUE(served.ok()) << served.status();
    StatusOr<std::vector<ppr::ScoredAnswer>> expected = ppr::TopKByScore(
        ppr::ReferencePhi(epoch.view(), seed, options.eipd), Candidates(),
        options.top_k);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ExpectIdenticalAnswers(*expected, served->answers);
  }
}

}  // namespace
}  // namespace kgov::serve
