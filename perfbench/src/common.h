// Shared pieces of the repo benchmark: command-line arguments, the result
// record, quantiles, the in-memory span tracer, and the object-position
// record the kNN/range checks read.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "model/venue.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double MicrosBetween(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1000.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Parses --workload/--seed/--seconds/--trace; returns false
// (with a message on stderr) on anything else.
bool ParseArgs(int argc, char** argv, Args* args);

// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 when
// empty.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

// How many consecutive chunks of a run the timing figures take medians
// over: about 3 s each in a 45 s run, so a stall or a slow stretch of the
// machine moves a few chunks rather than the figure.
inline constexpr size_t kChunks = 16;

// Quantile q of samples kept in request order, made robust to short stalls
// of the machine: the samples are cut into up to kChunks consecutive
// chunks, each with at least ten samples beyond q, and the median of the
// chunks' quantiles is returned.
double ChunkedQuantile(const std::vector<double>& ordered, double q);

// Completions per second: the span of `times_ns` cut into kChunks equal
// windows, and the median of their rates.
double WindowedRate(std::vector<int64_t> times_ns);

// The single JSON line the benchmark ends with, plus any check failures
// (printed to stderr, first few only).
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // Marks the run incorrect; keeps the message.
  void Fail(const std::string& message);
  void CountAttempted(uint64_t n) { attempted_ += n; }
  void CountFailed(uint64_t n) { failed_ += n; }
  uint64_t failed() const { return failed_; }
  // Prints the record as the last line of stdout.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  size_t fail_count_ = 0;
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Spans. The benchmark records one around each call it makes into a layer's
// public functions: name, start, end, the span that caused it, and the
// request it belongs to. Spans stay in memory until Write.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the tracer's spans, -1 = root
  uint64_t request = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Opens a span and returns its id (-1 when tracing is off).
  int64_t Begin(const char* name, uint64_t request, int64_t parent = -1);
  void End(int64_t id);
  // Records a span whose interval was measured elsewhere.
  int64_t Add(const char* name, uint64_t request, int64_t start_ns,
              int64_t end_ns, int64_t parent = -1);

  // Durations (us) of every span called `name`.
  std::vector<double> Durations(const char* name) const;
  // Self time (us) of every span called `name`: its duration minus the
  // part of its interval its child spans cover.
  std::vector<double> SelfTimes(const char* name) const;
  // Writes every span as one JSON object per line.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request,
             int64_t parent = -1)
      : tracer_(tracer), id_(tracer.Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

// Writes the tracer's spans to .bench_build/traces/<workload>-<seed>.jsonl
// and reports failure to stderr (the numbers are already derived in
// memory).
void DumpSpans(const Tracer& tracer, const Args& args);

// ---------------------------------------------------------------------------
// The benchmark's own record of where every object is. Moves are appended
// in submission order; their submit and completion times are filled in as
// they happen. A query answered between its submission and completion may
// have seen any object at any position the object held in that interval.
// ---------------------------------------------------------------------------

class ObjectRecord {
 public:
  explicit ObjectRecord(std::vector<viptree::IndoorPoint> initial);

  size_t num_objects() const { return initial_.size(); }
  // Registers a scheduled move and returns its index.
  size_t AddMove(viptree::ObjectId object, const viptree::IndoorPoint& to);
  const viptree::IndoorPoint& MoveTarget(size_t move) const {
    return moves_[move].to;
  }
  viptree::ObjectId MoveObject(size_t move) const {
    return moves_[move].object;
  }
  // Each move's times are written by exactly one thread and read only
  // after the run has drained.
  void SetSubmitted(size_t move, int64_t ns) { moves_[move].submit_ns = ns; }
  void SetCompleted(size_t move, int64_t ns) { moves_[move].complete_ns = ns; }

  // Every position `object` may have had for a request submitted at
  // `submit_ns` and answered at `complete_ns`. Moves never submitted do
  // not count.
  std::vector<viptree::IndoorPoint> Candidates(viptree::ObjectId object,
                                               int64_t submit_ns,
                                               int64_t complete_ns) const;
  // Positions after every submitted move.
  std::vector<viptree::IndoorPoint> Final() const;

 private:
  struct Move {
    viptree::ObjectId object;
    viptree::IndoorPoint to;
    int64_t submit_ns = 0;
    int64_t complete_ns = 0;
  };
  std::vector<viptree::IndoorPoint> initial_;
  std::vector<Move> moves_;
  std::vector<std::vector<size_t>> per_object_;
};

// Zipf(s) sampler over [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(double u) const;  // u uniform in [0, 1)

 private:
  std::vector<double> cdf_;
};

// CPU seconds this process has used (user + system), for the busy-thread
// figure: CPU time over wall time is the mean number of busy threads.
double ProcessCpuSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
