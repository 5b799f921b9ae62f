// Helpers shared by every perfbench workload: clocks, the percentile rule,
// the seeded Poisson schedule, lateness accounting, the result record, the
// in-memory span trace, and the timing Index adapter through which every
// workload reaches its backend.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

// ------------------------------------------------------ percentile rule ---

/// 1-based nearest rank of the p-quantile of n samples (the epsilon keeps
/// 0.99 * 1000 from rounding up to rank 991).
inline std::size_t quantile_rank(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, std::max<std::size_t>(n, 1));
}

/// Samples strictly beyond the nearest-rank p-quantile of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - quantile_rank(n, p);
}

/// Nearest-rank p-quantile. A tail quantile (p > 0.5) must leave at least
/// ten samples beyond it, or it is no tail: that throws, so a phase too
/// short for the percentile it reports fails loudly instead of reporting
/// its maximum.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::runtime_error("percentile of no samples");
  if (p > 0.5 && samples_beyond(v.size(), p) < 10) {
    std::string why = "percentile ";
    why += std::to_string(p) + " of " + std::to_string(v.size()) +
           " samples leaves fewer than ten beyond it";
    throw std::runtime_error(why);
  }
  const std::size_t i = quantile_rank(v.size(), p) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i), v.end());
  return v[i];
}

/// Throughput robust to a stall: the median over consecutive `window_s`
/// windows of [t0, t1) of the events (completion instants, seconds) per
/// second that fell in each window.
inline double windowed_rate(const std::vector<double>& events, double t0,
                            double t1, double window_s) {
  const auto windows = static_cast<std::size_t>((t1 - t0) / window_s);
  if (windows == 0) throw std::runtime_error("phase shorter than one window");
  std::vector<double> counts(windows, 0.0);
  for (double t : events) {
    if (t < t0) continue;
    const auto w = static_cast<std::size_t>((t - t0) / window_s);
    if (w < windows) counts[w] += 1.0;
  }
  for (double& c : counts) c /= window_s;
  return percentile(counts, 0.5);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------- seeded generators ---

/// splitmix64: the benchmark's own generator, so its inputs do not move when
/// the library's RNG changes.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Due times (seconds from phase start) of an open-loop Poisson arrival
/// process at `rate` per second over `seconds`. Same seed, same schedule.
inline std::vector<double> poisson_schedule(double rate, double seconds,
                                            std::uint64_t seed) {
  SeedRng rng(seed);
  std::vector<double> due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

/// How late an open-loop generator ran: for each request, the time between
/// its due instant and the moment it was actually handed to the socket.
class Lateness {
 public:
  void record(double due_s, double sent_s) {
    late_ms_.push_back(std::max(0.0, sent_s - due_s) * 1e3);
  }
  std::size_t count() const { return late_ms_.size(); }
  double p50_ms() const { return percentile(late_ms_, 0.5); }
  double p99_ms() const { return percentile(late_ms_, 0.99); }

 private:
  std::vector<double> late_ms_;
};

// -------------------------------------------------------- result record ---

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the operation counts, the verdict of the reference
/// checker, and the metrics by name.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;  // checker findings, printed to stderr

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail_check(const std::string& what) {
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
  }
};

/// Peak resident set of this process, MB (VmHWM).
double peak_rss_mb();

/// CPU time the hypervisor stole from this host's CPUs so far, seconds (the
/// steal column of /proc/stat; 0 where it is not reported). A run's steal
/// says how much of its spread came from outside the program.
double host_steal_s();

// ---------------------------------------------------------------- trace ---

/// One span: a call into a layer, timed from the benchmark's side of the
/// boundary. `group` ties the spans of one request or one shard together;
/// `rows` and `stats` are the work counts recorded at the same boundary.
struct Span {
  std::string name;
  int group = 0;
  Clock::time_point start;
  Clock::time_point end;
  std::uint32_t rows = 0;
  rbc::SearchStats stats{};
  double ms() const { return ms_between(start, end); }
};

/// In-memory span store; written out once, when the run ends.
class Trace {
 public:
  void add(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }
  /// Spans of `name` that started in [from, to), by start time.
  std::vector<Span> take(const std::string& name, Clock::time_point from,
                         Clock::time_point to = Clock::time_point::max()) const;
  /// Writes every span as one JSON line, times relative to `origin`.
  void write(const std::string& path, Clock::time_point origin) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// The benchmark-owned Index adapter every workload hands to the program's
/// upper layers (service, server, router shards). With no trace it forwards
/// knn_search untouched. With a trace it asks the backend for SearchStats
/// and records one span per call — the backend's share of every request,
/// seen from the layer above — without instrumenting the library.
class TimedIndex final : public rbc::Index {
 public:
  TimedIndex(std::shared_ptr<const rbc::Index> inner, Trace* trace,
             std::string span_name, int group = 0)
      : inner_(std::move(inner)), trace_(trace),
        span_name_(std::move(span_name)), group_(group) {}

  void build(const rbc::Matrix<float>&) override {
    throw std::logic_error("TimedIndex wraps an already built index");
  }
  rbc::SearchResponse knn_search(const rbc::SearchRequest& request) const override {
    if (trace_ == nullptr) return inner_->knn_search(request);
    rbc::SearchRequest traced = request;
    traced.options.collect_stats = true;
    Span span{span_name_, group_, Clock::now(), {}, 0, {}};
    rbc::SearchResponse response = inner_->knn_search(traced);
    span.end = Clock::now();
    span.rows = request.queries->rows();
    span.stats = response.stats;
    trace_->add(std::move(span));
    return response;
  }
  rbc::IndexInfo info() const override { return inner_->info(); }

 private:
  std::shared_ptr<const rbc::Index> inner_;
  Trace* trace_;
  std::string span_name_;
  int group_;
};

}  // namespace pb
