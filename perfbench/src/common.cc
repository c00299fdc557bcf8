#include "common.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "bad --seed %s\n", value.c_str());
        return false;
      }
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0.0)) {
        std::fprintf(stderr, "bad --seconds %s\n", value.c_str());
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--trace takes 0 or 1\n");
        return false;
      }
      args->trace = value == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->workload.empty()) {
    std::fprintf(stderr, "--workload is required\n");
    return false;
  }
  return true;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double ChunkedQuantile(const std::vector<double>& ordered, double q) {
  const double beyond = static_cast<double>(ordered.size()) * (1.0 - q);
  const size_t chunks =
      std::min(kChunks, std::max<size_t>(1, static_cast<size_t>(beyond / 10)));
  std::vector<double> per_chunk;
  const size_t size = ordered.size() / chunks;
  for (size_t c = 0; c < chunks; ++c) {
    const auto first = ordered.begin() + static_cast<ptrdiff_t>(c * size);
    const auto last = c + 1 == chunks ? ordered.end()
                                      : first + static_cast<ptrdiff_t>(size);
    per_chunk.push_back(Quantile(std::vector<double>(first, last), q));
  }
  return Median(per_chunk);
}

double WindowedRate(std::vector<int64_t> times_ns) {
  if (times_ns.size() < 2) return 0.0;
  std::sort(times_ns.begin(), times_ns.end());
  constexpr int64_t kWindows = static_cast<int64_t>(kChunks);
  const int64_t start = times_ns.front();
  const int64_t span = times_ns.back() - start;
  if (span <= 0) return 0.0;
  std::vector<double> counts(kChunks, 0.0);
  for (const int64_t t : times_ns) {
    const int64_t w = std::min<int64_t>(kWindows - 1, (t - start) * kWindows / span);
    counts[static_cast<size_t>(w)] += 1.0;
  }
  for (double& c : counts) c /= static_cast<double>(span) / kWindows / 1e9;
  return Median(counts);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& message) {
  correct_ = false;
  if (++fail_count_ <= 10) {
    std::fprintf(stderr, "check failed: %s\n", message.c_str());
  }
}

void Report::Print() const {
  if (fail_count_ > 10) {
    std::fprintf(stderr, "check failed: %zu more\n", fail_count_ - 10);
  }
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int64_t Tracer::Begin(const char* name, uint64_t request, int64_t parent) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, now, 0, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int64_t Tracer::Add(const char* name, uint64_t request, int64_t start_ns,
                    int64_t end_ns, int64_t parent) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<double> Tracer::Durations(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(MicrosBetween(s.start_ns, s.end_ns));
    }
  }
  return out;
}

std::vector<double> Tracer::SelfTimes(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[static_cast<size_t>(s.parent)] += hi - lo;
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) != 0) continue;
    out.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                      covered[i]) /
                  1000.0);
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"request\": %llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

void DumpSpans(const Tracer& tracer, const Args& args) {
  ::mkdir(".bench_build", 0755);
  ::mkdir(".bench_build/traces", 0755);
  const std::string path = ".bench_build/traces/" + args.workload + "-" +
                           std::to_string(args.seed) + ".jsonl";
  if (!tracer.Write(path)) {
    std::fprintf(stderr, "could not write spans to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }
}

ObjectRecord::ObjectRecord(std::vector<viptree::IndoorPoint> initial)
    : initial_(std::move(initial)), per_object_(initial_.size()) {}

size_t ObjectRecord::AddMove(viptree::ObjectId object,
                             const viptree::IndoorPoint& to) {
  moves_.push_back({object, to});
  per_object_[static_cast<size_t>(object)].push_back(moves_.size() - 1);
  return moves_.size() - 1;
}

std::vector<viptree::IndoorPoint> ObjectRecord::Candidates(
    viptree::ObjectId object, int64_t submit_ns, int64_t complete_ns) const {
  viptree::IndoorPoint settled = initial_[static_cast<size_t>(object)];
  std::vector<viptree::IndoorPoint> raced;
  for (const size_t m : per_object_[static_cast<size_t>(object)]) {
    const Move& move = moves_[m];
    if (move.submit_ns == 0 || move.submit_ns >= complete_ns) break;
    if (move.complete_ns != 0 && move.complete_ns < submit_ns) {
      settled = move.to;
    } else {
      raced.push_back(move.to);
    }
  }
  raced.push_back(settled);
  return raced;
}

std::vector<viptree::IndoorPoint> ObjectRecord::Final() const {
  std::vector<viptree::IndoorPoint> out = initial_;
  for (const Move& move : moves_) {
    if (move.submit_ns != 0) out[static_cast<size_t>(move.object)] = move.to;
  }
  return out;
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

}  // namespace perfbench
