// Measurement helpers shared by every workload: sample statistics, process
// memory, the per-layer span table, and the one-line JSON result.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear interpolation between closest ranks (the "inclusive" quantile of
/// Python's statistics.quantiles and NumPy's default). `q` in [0, 1].
/// Throws std::invalid_argument on an empty sample or q outside [0, 1].
[[nodiscard]] double percentile(std::vector<double> xs, double q);
[[nodiscard]] double median(const std::vector<double>& xs);

/// How many of `n` samples lie strictly above the q-quantile's rank, i.e.
/// floor(n * (1 - q)) computed without rounding up on exact products.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The tail quantile a latency report may quote for `n` samples: the
/// highest of 0.99 / 0.9 / 0.75 that leaves at least ten samples beyond
/// it, or 0.5 (the median alone) below forty samples.
[[nodiscard]] double reportable_tail(std::size_t n);

/// Peak resident set (VmHWM) of a live process in MB; < 0 if unreadable.
/// Unlike getrusage's ru_maxrss, VmHWM starts afresh at exec, so the
/// launcher's own footprint does not leak into the figure.
[[nodiscard]] double process_peak_rss_mb(pid_t pid);
[[nodiscard]] double self_peak_rss_mb();

/// User + system CPU time of a live process in seconds (clock-tick
/// resolution); < 0 if unreadable.
[[nodiscard]] double process_cpu_s(pid_t pid);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main().
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable failed checks (printed to stderr).
  std::vector<std::string> violations;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what);
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(const RunResult& r);

/// Per-layer busy time and call counts, keyed by span name. The benchmark
/// records spans only around its own calls into the library's public
/// functions; self time is the span's duration minus its children's.
class SpanTable {
 public:
  /// Open a span; close() ends the innermost open one (spans nest like
  /// scopes, which Span guarantees).
  void open(const std::string& name);
  void close();

  [[nodiscard]] double self_s(const std::string& name) const;
  [[nodiscard]] std::uint64_t calls(const std::string& name) const;

 private:
  struct Open {
    std::string name;
    double start = 0.0;
    double child = 0.0;
  };
  struct Total {
    double self = 0.0;
    std::uint64_t calls = 0;
  };
  std::vector<Open> stack_;
  std::map<std::string, Total> totals_;
};

/// RAII span over a SpanTable; a null table records nothing.
class Span {
 public:
  Span(SpanTable* table, const std::string& name) : table_(table) {
    if (table_ != nullptr) table_->open(name);
  }
  ~Span() {
    if (table_ != nullptr) table_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTable* table_;
};

/// Set-up time per call: `blocks` blocks of `reps` back-to-back calls of
/// `setup`, each block timed as a whole. A block of a few hundred
/// milliseconds keeps the figure steady where one call takes a few; the
/// reported set-up time is the median over blocks.
template <class F>
std::vector<double> time_setup_blocks(std::size_t blocks, std::size_t reps,
                                      F&& setup) {
  std::vector<double> per_call;
  for (std::size_t b = 0; b < blocks; ++b) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < reps; ++i) setup();
    per_call.push_back((now_s() - t0) / static_cast<double>(reps));
  }
  return per_call;
}

/// Rounds of a time-boxed measurement: keep starting whole rounds until
/// `seconds` have passed since construction, with at least `min_rounds`.
class RoundClock {
 public:
  RoundClock(double seconds, std::size_t min_rounds)
      : start_(now_s()), seconds_(seconds), min_rounds_(min_rounds) {}
  [[nodiscard]] bool another(std::size_t done) const {
    return done < min_rounds_ || now_s() - start_ < seconds_;
  }

 private:
  double start_;
  double seconds_;
  std::size_t min_rounds_;
};

}  // namespace perfbench
