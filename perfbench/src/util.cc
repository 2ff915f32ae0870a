#include "util.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace kgov::perfbench {

void UseFineTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void WaitUntil(TimePoint t) {
  constexpr auto kSpin = std::chrono::microseconds(60);
  if (t - Clock::now() > kSpin) std::this_thread::sleep_until(t - kSpin);
  while (Clock::now() < t) {
  }
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double TailPercentile(size_t n, double wanted) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 80.0, 75.0}) {
    if (p > wanted) continue;
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

Summary Summarize(std::vector<double> values, double wanted_tail) {
  Summary s;
  s.n = values.size();
  s.tail_percentile = TailPercentile(s.n, wanted_tail);
  s.p50 = Quantile(values, 0.5);
  s.tail = Quantile(values, s.tail_percentile / 100.0);
  return s;
}

double BlockPercentile(const std::vector<double>& values,
                       const std::vector<double>& sent, size_t block,
                       double percentile) {
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return sent[a] < sent[b]; });
  std::vector<double> tails;
  std::vector<double> chunk;
  for (size_t begin = 0; begin + block <= order.size(); begin += block) {
    chunk.clear();
    for (size_t i = begin; i < begin + block; ++i) {
      chunk.push_back(values[order[i]]);
    }
    tails.push_back(Quantile(chunk, percentile / 100.0));
  }
  if (tails.empty()) {
    std::vector<double> all = values;
    return Quantile(all, percentile / 100.0);
  }
  return Quantile(tails, 0.5);
}

namespace {

// Jiffies since boot: stolen, and not idle (user, system, irq, steal...).
bool ReadCpuTotals(uint64_t* steal, uint64_t* busy) {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return false;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return false;
  *busy = 0;
  for (unsigned long long x : v) *busy += x;
  *busy -= v[3] + v[4];  // idle, iowait
  *steal = v[7];
  return true;
}

}  // namespace

StealMonitor::StealMonitor() {
  ReadCpuTotals(&last_steal_, &last_busy_);
  thread_ = std::thread([this] { Loop(); });
}

StealMonitor::~StealMonitor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void StealMonitor::Sample() {
  uint64_t steal = 0;
  uint64_t busy = 0;
  if (!ReadCpuTotals(&steal, &busy)) return;
  const double now = Stamp(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  ticks_.push_back(Tick{now, steal - last_steal_, busy - last_busy_});
  last_steal_ = steal;
  last_busy_ = busy;
}

void StealMonitor::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(100));
    if (stop_) break;
    lock.unlock();
    Sample();
    lock.lock();
  }
}

double StealMonitor::Share(double from, double to) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Tick i covers (ticks_[i-1].end, ticks_[i].end].
  auto it = std::lower_bound(
      ticks_.begin(), ticks_.end(), from,
      [](const Tick& t, double value) { return t.end < value; });
  uint64_t steal = 0;
  uint64_t busy = 0;
  for (; it != ticks_.end(); ++it) {
    steal += it->steal;
    busy += it->busy;
    if (it->end >= to) break;
  }
  return busy == 0 ? 0.0
                   : static_cast<double>(steal) / static_cast<double>(busy);
}

double StealMonitor::DisturbedTickShare() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t disturbed = 0;
  for (const Tick& t : ticks_) {
    if (t.busy > 0 && static_cast<double>(t.steal) >
                          kMaxShare * static_cast<double>(t.busy)) {
      ++disturbed;
    }
  }
  return ticks_.empty() ? 0.0
                        : static_cast<double>(disturbed) /
                              static_cast<double>(ticks_.size());
}

void PrintTiming(const std::string& label, const std::string& unit,
                 const Summary& summary) {
  std::printf("  %-34s n=%-7zu p50=%.4g %s  p%g=%.4g %s\n", label.c_str(),
              summary.n, summary.p50, unit.c_str(), summary.tail_percentile,
              summary.tail, unit.c_str());
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  entries_.push_back(Entry{name, value, unit});
}

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", entries_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace kgov::perfbench
