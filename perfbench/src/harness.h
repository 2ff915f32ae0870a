// The workload-independent half of the benchmark: the system under test
// (optimizer + stream pipeline + WAL/checkpoints + query engine), the
// load-generator clients, the correctness oracle, the span tracer, the
// checkpoint-and-restart step, the stage replays and the metric report.

#ifndef KGOV_PERFBENCH_HARNESS_H_
#define KGOV_PERFBENCH_HARNESS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/online_optimizer.h"
#include "durability/manager.h"
#include "graph/graph.h"
#include "ppr/query_seed.h"
#include "serve/query_engine.h"
#include "stream/pipeline.h"
#include "util.h"
#include "votes/vote.h"

namespace kgov::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory (WAL, snapshots, span dumps) inside the checkout.
  std::string workdir = ".bench_build/perfbench-runs";
};

// --- Tracing -------------------------------------------------------------

/// The public call a span times.
enum class Call : uint8_t {
  kSubmit,
  kSubmitBatch,
  kOffer,
  kDrainOnce,
  kCheckpoint,
  kRecover,
  kOptimizerRestore,
  kEngineCreate,
  kFirstQuery,
};

const char* CallName(Call call);

struct Span {
  Call call = Call::kSubmit;
  /// kSpanOk / kSpanHit / kSpanCoalesced bits.
  uint8_t flags = 0;
  /// Items the call handled (queries in a batch, votes drained).
  uint32_t items = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Request id: the query or vote sequence number, or the batch index.
  uint64_t request = 0;
};

inline constexpr uint8_t kSpanOk = 1;
inline constexpr uint8_t kSpanHit = 2;
inline constexpr uint8_t kSpanCoalesced = 4;

/// Records spans around calls into kgov's public entry points. Only a
/// pseudo-random half of the requests (by a hash of the request id) is
/// traced, so a traced run also holds an interleaved untraced half of the
/// same load to measure the tracing overhead against. Each thread fills its own buffer and merges it at
/// the end.
class Tracer {
 public:
  Tracer(bool enabled, TimePoint origin) : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }
  bool Active(uint64_t request) const;
  int64_t Nanos(TimePoint t) const;

  void Merge(std::vector<Span> spans);
  /// Durations in microseconds of the merged spans of `call`.
  std::vector<double> DurationsUs(Call call) const;
  /// One JSON object per line: call, flags, items, start/end ns, request.
  bool WriteJsonLines(const std::string& path) const;
  size_t size() const;

 private:
  bool enabled_;
  TimePoint origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// --- System under test -----------------------------------------------------

struct SystemConfig {
  core::OnlineOptimizerOptions optimizer;
  serve::QueryEngineOptions engine;
  stream::StreamPipelineOptions pipeline;
  std::string dir;
  uint64_t num_entities = 0;
  uint64_t num_documents = 0;
};

/// One live kgov deployment: WAL-backed stream pipeline feeding the online
/// optimizer, and a query engine over its published epochs.
struct System {
  static std::unique_ptr<System> Create(
      const graph::WeightedDigraph& graph,
      const std::vector<graph::NodeId>* candidates, SystemConfig config);
  ~System();

  SystemConfig config;
  const std::vector<graph::NodeId>* candidates = nullptr;
  // Destroyed in reverse order: engine, pipeline, optimizer, WAL.
  std::unique_ptr<durability::DurabilityManager> durability;
  std::unique_ptr<core::OnlineKgOptimizer> online;
  std::unique_ptr<stream::StreamPipeline> pipeline;
  std::unique_ptr<serve::QueryEngine> engine;
};

// --- Correctness oracle -----------------------------------------------------

/// Compares served rankings with a cold EipdEngine::Rank on the pinned
/// epoch, bit for bit. Samples queued with Enqueue are checked on a
/// background thread; Check runs synchronously.
class Oracle {
 public:
  Oracle(const std::vector<graph::NodeId>* candidates,
         serve::QueryEngineOptions options);
  ~Oracle();
  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  void Enqueue(const ppr::QuerySeed* seed, core::ServingEpoch epoch,
               serve::RankedAnswers served);
  bool Check(const ppr::QuerySeed& seed, const core::ServingEpoch& epoch,
             const serve::RankedAnswers& served);
  /// A cold ranking of `seed` on `epoch` at the configured depth.
  std::vector<ppr::ScoredAnswer> Cold(const ppr::QuerySeed& seed,
                                      const core::ServingEpoch& epoch) const;
  /// Drains the queue and stops the checker thread.
  void Finish();
  /// Counts a served ranking whose epoch was no longer available.
  void CountUnverifiable() { unverifiable_.fetch_add(1); }

  uint64_t checked() const { return checked_.load(); }
  uint64_t mismatches() const { return mismatches_.load(); }
  uint64_t dropped() const { return dropped_.load(); }
  uint64_t unverifiable() const { return unverifiable_.load(); }

 private:
  struct Item {
    const ppr::QuerySeed* seed;
    core::ServingEpoch epoch;
    serve::RankedAnswers served;
  };
  void Loop();

  const std::vector<graph::NodeId>* candidates_;
  serve::QueryEngineOptions options_;
  std::atomic<uint64_t> checked_{0};
  std::atomic<uint64_t> mismatches_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> unverifiable_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool done_ = false;
  std::thread thread_;  // last: started after the state it uses
};

bool SameRanking(const std::vector<ppr::ScoredAnswer>& a,
                 const std::vector<ppr::ScoredAnswer>& b);

// --- Telemetry registry --------------------------------------------------

/// The kgov telemetry counters and span histograms the report reads.
struct RegistryTotals {
  std::map<std::string, double> values;

  static RegistryTotals Read();
  double Get(const std::string& name) const;
  RegistryTotals Minus(const RegistryTotals& earlier) const;
};

// --- Load generation -------------------------------------------------------

struct RunData;

/// One query client: open loop at `rate` per second when rate > 0 (each
/// latency timed from the scheduled send), else closed loop back to back.
struct QueryClient {
  double rate = 0.0;
  TimePoint start;
  TimePoint end;
  /// Seed indices in send order (wrapped when exhausted).
  const std::vector<uint32_t>* sequence = nullptr;
  /// Every Nth served ranking goes to the oracle.
  uint32_t oracle_every = 64;
  uint64_t request_base = 0;

  // Results.
  std::vector<double> latency_us;
  /// When each latency sample's clock started (the scheduled send in an
  /// open loop), as Stamp() seconds.
  std::vector<double> sent_s;
  std::vector<double> traced_latency_us;
  std::vector<double> untraced_latency_us;
  std::vector<double> late_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Span> spans;
};

struct LoadContext {
  System* system = nullptr;
  const std::vector<ppr::QuerySeed>* seeds = nullptr;
  Tracer* tracer = nullptr;
  Oracle* oracle = nullptr;
};

void RunQueryClient(const LoadContext& ctx, QueryClient* client);

/// Runs `clients` on their own threads and waits for all of them.
void RunQueryClients(const LoadContext& ctx,
                     std::vector<QueryClient>* clients);

/// Serves `indices` through SubmitBatch in chunks of `chunk`; each query's
/// latency is its chunk's call time, recorded into `out` like a client's.
/// Returns the rankings (empty for a failed query).
std::vector<std::vector<ppr::ScoredAnswer>> ServeBatches(
    const LoadContext& ctx, const std::vector<uint32_t>& indices,
    size_t chunk, uint32_t oracle_every, QueryClient* out);

/// Moves a client's samples into the run record (latencies only when
/// `latencies` is set) and its spans into the tracer.
void Absorb(QueryClient* client, bool latencies, Tracer* tracer,
            RunData* data);

std::vector<uint32_t> UniformSequence(size_t n, size_t count, uint64_t seed);

// --- Run record and report -----------------------------------------------

struct RunData {
  // End to end.
  std::vector<double> setup_s;
  std::vector<double> query_us;
  std::vector<double> query_sent_s;
  std::vector<double> query_us_traced;
  std::vector<double> query_us_untraced;
  uint64_t queries_attempted = 0;
  uint64_t queries_failed = 0;
  std::vector<double> vote_visible_ms;
  uint64_t votes_offered = 0;
  uint64_t votes_applied = 0;
  double answer_mrr = 0.0;
  std::vector<double> restart_ms;

  // Per layer.
  std::vector<double> late_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> batch_votes;
  serve::QueryEngine::ServeStats serve_window;
  RegistryTotals registry;  // over the measured load
  double dense_ratio = 0.0;  // EIPD kernel mix of ProbeServe's misses
  std::vector<double> recover_ms;
  std::vector<double> restart_optimizer_ms;
  std::vector<double> restart_engine_ms;
  std::vector<double> restart_first_query_ms;
  double snapshot_mb = 0.0;
  std::vector<double> copy_ms;
  std::vector<double> validate_ms;
  std::vector<double> csr_ms;
  std::vector<double> encode_ms;
  std::vector<double> rank_us;
  std::vector<double> topk_us;
  std::vector<double> serve_hit_us;  // ProbeServe
  std::vector<double> serve_miss_us;

  // Host interference: timings whose interval the hypervisor disturbed
  // are left out of the end-to-end metrics (see StealMonitor).
  StealMonitor steal;
  double load_start_s = 0.0;
  double load_end_s = 0.0;
  std::vector<double> setup_end_s;         // parallel to setup_s
  std::vector<double> vote_visible_end_s;  // parallel to vote_visible_ms
  std::vector<double> restart_end_s;       // parallel to restart_ms
  /// Closed-loop micro-batches of full size: {DrainOnce start, end, votes
  /// applied}; votes_per_s is taken over them.
  std::vector<std::vector<double>> vote_rounds;

  // Correctness (beyond the oracle's own counters).
  uint64_t other_attempted = 0;
  uint64_t other_failed = 0;
};

/// Serves `indices` of `seeds` once through SubmitBatch (set-up warm-up).
void WarmCache(serve::QueryEngine* engine,
               const std::vector<ppr::QuerySeed>& seeds,
               const std::vector<uint32_t>& indices);

/// a - b, field by field, for the outcome counters the report uses.
serve::QueryEngine::ServeStats Minus(const serve::QueryEngine::ServeStats& a,
                                     const serve::QueryEngine::ServeStats& b);

/// Mean reciprocal rank of `best[i]` in `rankings[i]` (0 when absent).
double MeanReciprocalRank(
    const std::vector<std::vector<ppr::ScoredAnswer>>& rankings,
    const std::vector<graph::NodeId>& best);

/// A checkpoint, then one restart (Recover -> restoring optimizer ->
/// QueryEngine::Create -> first query) checked against the live epoch:
/// epoch number, pending votes, and bitwise rankings of `check_seeds`.
/// Called between micro-batches with nothing queued, so the workloads
/// spread their restarts over the run.
void CheckpointAndRestart(System* live,
                          const std::vector<const ppr::QuerySeed*>& check_seeds,
                          Tracer* tracer, Oracle* oracle, RunData* data);

/// After the load: QueryEngine::Submit of each of `seeds` twice on the
/// idle engine (a miss unless the load left the seed cached, then a hit),
/// timing hits and misses apart and recording the EIPD kernel mix of the
/// misses.
void ProbeServe(const System& system,
                const std::vector<const ppr::QuerySeed*>& seeds,
                RunData* data);

/// Trace mode: times the flush's graph-wide stages and the vote encoder on
/// the final graph through their public functions, and EipdEngine::Rank /
/// Scores on the final epoch for `seeds`.
void ReplayStages(const System& system,
                  const std::vector<std::vector<votes::Vote>>& batches,
                  const std::vector<const ppr::QuerySeed*>& seeds,
                  size_t max_encode_batches, RunData* data);

/// Prints the workload properties and timing sample counts, writes the
/// spans of a traced run, then returns the final JSON line (end-to-end
/// metrics, or per-layer ones in trace mode).
std::string FinishReport(const Args& args, RunData* data, Oracle* oracle,
                         Tracer* tracer, bool* correct);

/// Runs `build` `runs` times and records each returned set-up time (the
/// report takes the median of the undisturbed ones).
template <typename Fn>
void TimeSetup(int runs, Fn build, RunData* data) {
  for (int i = 0; i < runs; ++i) {
    data->setup_s.push_back(build());
    data->setup_end_s.push_back(Stamp(Clock::now()));
  }
}

}  // namespace kgov::perfbench

#endif  // KGOV_PERFBENCH_HARNESS_H_
