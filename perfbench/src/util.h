// Small helpers shared by the perfbench workloads: clocks, precise waits,
// percentile summaries, the metric report, the process's peak RSS and
// the monitor of CPU time the hypervisor steals from this VM.

#ifndef KGOV_PERFBENCH_UTIL_H_
#define KGOV_PERFBENCH_UTIL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace kgov::perfbench {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

inline double SecondsBetween(TimePoint from, TimePoint to) {
  return std::chrono::duration<double>(to - from).count();
}

inline TimePoint After(TimePoint t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// Lowers this thread's timer slack so sleeps end within microseconds of
/// their deadline (open-loop schedules need that precision).
void UseFineTimerSlack();

/// Sleeps until shortly before `t`, then spins until `t`.
void WaitUntil(TimePoint t);

/// Linear-interpolated quantile of `values` (q in [0, 1]); sorts `values`.
/// 0 for an empty sample.
double Quantile(std::vector<double>& values, double q);

/// The highest of the percentiles 99.9, 99, 95, 90, 80, 75 and 50 that
/// leaves at least ten samples above it in a sample of `n`, capped at
/// `wanted` (50 when even the median has fewer than ten above it).
double TailPercentile(size_t n, double wanted = 99.0);

/// Median and tail of one timing sample, with the sample count.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 50.0;
};

Summary Summarize(std::vector<double> values, double wanted_tail = 99.0);

/// Median over consecutive blocks of `block` samples (in send order) of
/// each block's `percentile`, so a short burst of interference moves only
/// the blocks it falls in. Falls back to the whole sample's percentile when
/// there is no full block.
double BlockPercentile(const std::vector<double>& values,
                       const std::vector<double>& sent, size_t block,
                       double percentile);

/// Seconds since the steady clock's epoch (the time base of the stored
/// sample instants).
inline double Stamp(TimePoint t) { return SecondsBetween(TimePoint{}, t); }

/// Samples the CPU time the hypervisor stole from this VM (/proc/stat)
/// every 100 ms on a background thread. On a shared host other guests
/// take CPU in bursts; a timing whose interval overlaps such a burst
/// measures the neighbours, not kgov, and the report leaves it out. The
/// stolen share is relative to the VM's busy time (everything but idle
/// and iowait), i.e. the part of the demand the host did not serve.
class StealMonitor {
 public:
  /// Intervals whose stolen share exceeds this are disturbed.
  static constexpr double kMaxShare = 0.05;

  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// Takes a sample now (so intervals that just ended are covered).
  void Sample();
  /// Stolen share of busy CPU time over the ticks overlapping [from, to]
  /// (Stamp() seconds); 0 when nothing is known about the interval.
  double Share(double from, double to) const;
  bool Undisturbed(double from, double to) const {
    return Share(from, to) <= kMaxShare;
  }
  /// Share of all ticks so far whose own stolen share exceeded kMaxShare.
  double DisturbedTickShare() const;

 private:
  struct Tick {
    double end;
    uint64_t steal;  // deltas since the previous tick
    uint64_t busy;
  };
  void Loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  uint64_t last_steal_ = 0;
  uint64_t last_busy_ = 0;
  std::vector<Tick> ticks_;
  std::thread thread_;  // last: started after the state it uses
};

/// Prints "label: n=..., p50=... unit, pXX=... unit" to stdout.
void PrintTiming(const std::string& label, const std::string& unit,
                 const Summary& summary);

/// Mean of `values` (0 when empty).
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Ordered metric set printed as the run's final JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Ratio that reads 0 instead of NaN on an empty denominator.
inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

}  // namespace kgov::perfbench

#endif  // KGOV_PERFBENCH_UTIL_H_
