#include "stats.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("percentile: empty sample");
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile: q outside [0, 1]");
  }
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double median(const std::vector<double>& xs) { return percentile(xs, 0.5); }

std::size_t samples_beyond(std::size_t n, double q) {
  // n * (1 - q) in integer thousandths, so 1000 * 0.01 gives exactly 10.
  const auto milli = static_cast<std::uint64_t>(std::llround((1.0 - q) * 1000));
  return static_cast<std::size_t>(static_cast<std::uint64_t>(n) * milli / 1000);
}

double reportable_tail(std::size_t n) {
  for (const double q : {0.99, 0.9, 0.75}) {
    if (samples_beyond(n, q) >= 10) return q;
  }
  return 0.5;
}

double self_peak_rss_mb() { return process_peak_rss_mb(::getpid()); }

double process_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      double kib = -1.0;
      ls >> kib;
      return kib < 0.0 ? -1.0 : kib / 1024.0;
    }
  }
  return -1.0;
}

double process_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto paren = stat.rfind(')');
  if (paren == std::string::npos) return -1.0;
  // After the command name: state (field 3) ... utime (14), stime (15).
  std::istringstream fields(stat.substr(paren + 1));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  const long hz = ::sysconf(_SC_CLK_TCK);
  return hz > 0 ? ticks / static_cast<double>(hz) : -1.0;
}

void RunResult::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (violations.size() < 20) violations.push_back(what);
}

std::string result_json(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    char value[64];
    // %.17g keeps every digit; a non-finite value is not JSON, so it is
    // written as null and the run is already marked incorrect.
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    out += first ? "" : ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void SpanTable::open(const std::string& name) {
  stack_.push_back({name, now_s(), 0.0});
}

void SpanTable::close() {
  const Open top = stack_.back();
  stack_.pop_back();
  const double elapsed = now_s() - top.start;
  Total& t = totals_[top.name];
  t.self += elapsed - top.child;
  ++t.calls;
  if (!stack_.empty()) stack_.back().child += elapsed;
}

double SpanTable::self_s(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.self;
}

std::uint64_t SpanTable::calls(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second.calls;
}

}  // namespace perfbench
