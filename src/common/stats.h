// Small helpers shared by benchmarks and index-size reporting: a wall-clock
// timer and summary statistics over latency samples.

#ifndef VIPTREE_COMMON_STATS_H_
#define VIPTREE_COMMON_STATS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace viptree {

// Wall-clock stopwatch with microsecond resolution.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  // Elapsed time since construction or the last Reset, in microseconds.
  double ElapsedMicros() const;
  double ElapsedMillis() const { return ElapsedMicros() / 1000.0; }
  double ElapsedSeconds() const { return ElapsedMicros() / 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Summary statistics over a sample of doubles (latencies, sizes, counts).
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

// Computes a Summary; the input vector is copied and sorted internally.
Summary Summarize(const std::vector<double>& samples);

// Pretty-prints a byte count as B / KB / MB with two decimals.
// Returns e.g. "612.34 MB".
std::string HumanBytes(uint64_t bytes);

}  // namespace viptree

#endif  // VIPTREE_COMMON_STATS_H_
