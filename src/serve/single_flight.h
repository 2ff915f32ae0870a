// Single-flight collapse of concurrent cache misses.
//
// Under concurrent traffic, N identical misses on the same (seed, epoch)
// key each used to run a full EIPD propagation - N-1 of them pure waste,
// and exactly the load spike a flash crowd on a cold key produces. A
// SingleFlightGroup coalesces them: the first miss to register a key
// becomes the LEADER and runs the propagation; every later miss on the
// same key becomes a FOLLOWER and waits (with a deadline) until the
// leader publishes its result, then receives a bitwise-identical copy.
//
// Epoch safety: the flight key the QueryEngine passes in includes the
// pinned epoch number (and the degraded-mode bit), so a follower pinned
// at epoch E can only ever join a flight whose leader is computing under
// the same pin. A query that re-pins to E' after an optimizer flush
// starts a fresh flight - a follower is never handed a result computed
// under a different epoch without revalidation (the property
// tests/test_query_engine.cc races epoch swaps to verify).
//
// Deadlock freedom: JoinOrLead never blocks - it either hands back a
// LeaderToken (the obligation to compute) or a follower handle to Wait
// on later. The discipline is: a task resolves every flight it LEADS
// before it WAITS on any flight it follows. Each QueryEngine task serves
// one query, so it leads at most one flight and never waits while
// holding it. A waiting task therefore never holds an unresolved
// obligation, so no cycle of tasks can wait on each other. Leadership is also only ever taken by a
// task that is ALREADY running (decided inside the worker body, not at
// enqueue time), so followers wait on in-progress computations, never on
// a task stuck behind them in the pool's FIFO. The follower deadline is
// a backstop: a follower that times out detaches and runs its own
// propagation (the result is identical either way; the duplicate work is
// counted in serve.singleflight.timeouts).
//
// A leader MUST resolve its flight exactly once - Complete() on success
// or failure both wake the followers (identical inputs produce identical
// errors). LeaderToken enforces this with RAII: destroying an unresolved
// token completes the flight with an Internal error so followers can
// never hang on a leader that unwound without answering.

#ifndef KGOV_SERVE_SINGLE_FLIGHT_H_
#define KGOV_SERVE_SINGLE_FLIGHT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "ppr/ranking.h"

namespace kgov::serve {

/// Coalesces concurrent computations of the same flight key onto one
/// leader. Thread-safe; one instance per QueryEngine.
class SingleFlightGroup {
 private:
  struct Flight {
    mutable Mutex mu{KGOV_LOCK_RANK(kSingleFlightFlight)};
    CondVar cv;
    bool done KGOV_GUARDED_BY(mu) = false;
    Status status KGOV_GUARDED_BY(mu);
    std::vector<ppr::ScoredAnswer> answers KGOV_GUARDED_BY(mu);
  };

 public:
  class LeaderToken;

  /// Result of JoinOrLead: exactly one of `token` (caller is the leader
  /// and must Complete it) or `flight` (caller is a follower and should
  /// Wait on it once it holds no unresolved leaderships) is non-null.
  struct JoinOutcome {
    std::unique_ptr<LeaderToken> token;
    std::shared_ptr<Flight> flight;
  };

  /// Outcome of a follower's Wait. `published == false` means the
  /// deadline expired before the leader resolved; the caller must detach
  /// and compute for itself (the flight stays live for other followers).
  struct WaitResult {
    bool published = false;
    Status status;
    std::vector<ppr::ScoredAnswer> answers;
  };

  SingleFlightGroup() = default;
  SingleFlightGroup(const SingleFlightGroup&) = delete;
  SingleFlightGroup& operator=(const SingleFlightGroup&) = delete;

  /// Registers the flight for `key` (leader) or joins the one in
  /// progress (follower). Never blocks.
  JoinOutcome JoinOrLead(const std::string& key) KGOV_EXCLUDES(mu_);

  /// Waits up to `deadline` for the flight's leader to publish. Call
  /// only while holding no unresolved LeaderToken (see the deadlock
  /// discipline above). The published value is copied bit-for-bit.
  static WaitResult Wait(const std::shared_ptr<Flight>& flight,
                         std::chrono::nanoseconds deadline);

  /// Flights currently in progress (leaders that have not resolved).
  size_t InFlight() const KGOV_EXCLUDES(mu_);

 private:
  /// Publishes `status`/`answers` on the flight, removes it from the
  /// table (later misses start a new flight), and wakes every follower.
  void Resolve(const std::string& key, const std::shared_ptr<Flight>& flight,
               Status status, const std::vector<ppr::ScoredAnswer>& answers)
      KGOV_EXCLUDES(mu_);

  mutable Mutex mu_{KGOV_LOCK_RANK(kSingleFlightTable)};
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_
      KGOV_GUARDED_BY(mu_);

 public:
  /// The leader's obligation: resolve the flight exactly once. Moves only
  /// through unique_ptr (JoinOutcome). Destruction without Complete()
  /// resolves with Internal, so followers can never wait forever.
  class LeaderToken {
   public:
    ~LeaderToken() {
      if (!resolved_) {
        group_->Resolve(key_, flight_,
                        Status::Internal("single-flight leader abandoned "
                                         "its flight without completing"),
                        {});
      }
    }

    LeaderToken(const LeaderToken&) = delete;
    LeaderToken& operator=(const LeaderToken&) = delete;

    /// Publishes the leader's outcome to every follower and retires the
    /// flight. `answers` is copied (the leader keeps its own result).
    void Complete(Status status,
                  const std::vector<ppr::ScoredAnswer>& answers) {
      group_->Resolve(key_, flight_, std::move(status), answers);
      resolved_ = true;
    }

   private:
    friend class SingleFlightGroup;
    LeaderToken(SingleFlightGroup* group, std::string key,
                std::shared_ptr<Flight> flight)
        : group_(group), key_(std::move(key)), flight_(std::move(flight)) {}

    SingleFlightGroup* group_;
    std::string key_;
    std::shared_ptr<Flight> flight_;
    bool resolved_ = false;
  };
};

/// The flight key for a serving query: the cache key (exact seed bytes)
/// plus the pinned epoch and the degraded-mode bit, so flights never mix
/// results across epochs or effective propagation depths.
std::string EncodeFlightKey(const std::string& cache_key, uint64_t epoch,
                            bool degraded);

}  // namespace kgov::serve

#endif  // KGOV_SERVE_SINGLE_FLIGHT_H_
