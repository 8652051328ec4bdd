// daemon_plan: the built harvestd binary in --once mode (one simulation at
// start-up, then serving only), driven by a closed loop of one client in this
// process. Each round sends a fixed, shuffled mix of requests, then makes
// the idle-client probe:
//
//   first-touch /plan?machine=<id>   the refit path (writes fitter + cache)
//   repeat /plan on warm machines     cache-hit reads
//   /plan with predictor parameters   a (p, r, window) grid: misses, then hits
//   /metrics and /profile.json        scrapes
//   /healthz                          liveness
//
// No caller of harvestd records its traffic, so the mix is an assumption:
// each class gets about the same share of the round's time at the class
// latencies measured on the reference host (see perfbench/README.md). A
// k-fold slowdown of any one class then moves run_s by about (k - 1) / 6.
//
// This is the only workload that runs through obs::HttpServer and
// plan::PlannerService / PlanCache.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "http_client.hpp"
#include "json_lite.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr std::size_t kMachines = 4096;
constexpr std::size_t kWarmMachines = 64;
constexpr std::size_t kPredictorMachines = 4;
constexpr std::size_t kSetups = 5;
constexpr std::size_t kMinRounds = 3;
constexpr int kRequestTimeoutMs = 10000;
constexpr int kProbeDeadlineMs = 200;
constexpr int kProbeDrainMs = 10000;

enum Class : std::size_t {
  kCold, kWarm, kPredictor, kMetrics, kProfile, kHealthz, kClassCount
};
const char* const kClassNames[] = {"plan_cold", "plan_warm", "plan_predictor",
                                   "metrics",   "profile",   "healthz"};
// Requests of each class in one round, sized from class p50s measured on
// the reference host (0.61, 0.11, 0.12, 0.93, 0.46 and 0.097 ms) so that
// each class holds about a sixth of a round's latency; the README gives
// the shares measured under this mix.
constexpr std::size_t kPerRound[kClassCount] = {24, 128, 128, 16, 32, 152};
// The predictor grid: p x r x window.
const double kGridP[] = {0.6, 0.8, 0.95};
const double kGridR[] = {0.3, 0.5, 0.7, 0.9};
const double kGridWindow[] = {900.0, 1800.0, 3600.0};

std::string machine_id(std::size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "m%04zu", i);
  return buf;
}

/// Pin the calling thread to the highest-numbered CPU it may run on; the
/// harvestd it then starts inherits that CPU. Client and server take turns
/// (one request in flight), so on one CPU each hand-over is a local context
/// switch. Spread over CPUs, each one wakes an idle vCPU, whose delay on a
/// shared virtual machine made run_s spread 0.17 over five runs of one
/// commit, against 0.035 pinned.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof(one), &one) != 0) {
      throw std::runtime_error("cannot pin to one CPU");
    }
    return;
  }
}

/// One harvestd process; the destructor stops it and waits for it.
class Daemon {
 public:
  explicit Daemon(const std::string& binary) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    out_fd_ = fds[0];
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    const std::string machines_s = std::to_string(kMachines);
    std::vector<std::string> args = {binary,       "--port",     "0",
                                     "--once",     "--machines", machines_s,
                                     "--jobs",     "4",          "--work-hours",
                                     "1"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + binary);
    }
    port_ = read_port();
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      for (int i = 0; i < 500; ++i) {  // up to 5 s, then force
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          break;
        }
        ::usleep(10000);
      }
      if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
      }
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Poll /readyz until it answers 200.
  void wait_ready(double timeout_s) const {
    const double deadline = now_s() + timeout_s;
    while (now_s() < deadline) {
      if (http_get(port_, "/readyz", 1000).status == 200) return;
      ::usleep(2000);
    }
    throw std::runtime_error("harvestd never became ready");
  }

 private:
  /// Parse "harvestd: listening on <addr>:<port>" from the child's stdout.
  std::uint16_t read_port() {
    std::string line;
    const double deadline = now_s() + 60.0;
    while (line.find('\n') == std::string::npos) {
      pollfd pfd{out_fd_, POLLIN, 0};
      const int left = static_cast<int>((deadline - now_s()) * 1000.0);
      if (left <= 0 || ::poll(&pfd, 1, left) <= 0) {
        throw std::runtime_error("harvestd printed no port");
      }
      char buf[256];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) throw std::runtime_error("harvestd exited at start-up");
      line.append(buf, static_cast<std::size_t>(n));
    }
    const auto colon = line.rfind(':', line.find('\n'));
    const int port = colon == std::string::npos ? 0 : std::atoi(&line[colon + 1]);
    if (port <= 0 || port > 65535) {
      throw std::runtime_error("bad harvestd banner: " + line);
    }
    return static_cast<std::uint16_t>(port);
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

struct Request {
  Class cls = kHealthz;
  std::string target;
  std::size_t machine = 0;  ///< for /plan
};

struct Reply {
  HttpReply http;
  double latency_s = 0.0;
};


/// The reactive plan of a warm machine, as served before timing starts.
struct ReactivePlan {
  double work0 = 0.0;
  double age0 = 0.0;
  double age1 = 0.0;
};

class Checker {
 public:
  explicit Checker(RunResult& r) : r_(r) {}

  /// Parse a /plan body and check the method's invariants. Returns whether
  /// they hold; the parsed document goes to `doc_out` when given.
  bool plan(const Reply& reply, const std::string& what,
            JsonValue* doc_out = nullptr) {
    if (reply.http.status != 200) {
      r_.check(false, what + ": HTTP " + std::to_string(reply.http.status));
      return false;
    }
    try {
      JsonValue doc = JsonValue::parse(reply.http.body);
      bool ok = doc.at("status").string() == "ok";
      const auto& schedule = doc.at("schedule").array();
      ok &= !schedule.empty();
      for (const auto& e : schedule) ok &= e.at("work_s").number() > 0.0;
      r_.check(ok, what + ": ok status and a schedule of positive work_s");
      if (doc_out != nullptr) *doc_out = std::move(doc);
      return ok;
    } catch (const std::exception& e) {
      r_.check(false, what + ": " + e.what());
      return false;
    }
  }

  /// Aupy et al. stretch: period_factor = 1/sqrt(1 - r~) with
  /// r~ = min(r * max(0, I - C) / I, 0.99), recomputed from the echoed
  /// p, r and window, and C read off the machine's reactive schedule
  /// (age(1) = age(0) + T(0) + C). The stretched first interval must be the
  /// reactive one times that factor.
  void predictor_plan(const Reply& reply, const ReactivePlan& reactive,
                      const std::string& what) {
    JsonValue doc;
    if (!plan(reply, what, &doc)) return;
    try {
      const JsonValue& pred = doc.at("predictor");
      const double r = pred.at("recall").number();
      const double window = pred.at("window_s").number();
      const double factor = pred.at("period_factor").number();
      const double p = pred.at("precision").number();
      const double cost = reactive.age1 - reactive.age0 - reactive.work0;
      const double r_eff =
          std::min(r * std::max(0.0, window - cost) / window, 0.99);
      const double expected = 1.0 / std::sqrt(1.0 - r_eff);
      const double work0 =
          doc.at("schedule").array().front().at("work_s").number();
      r_.check(p > 0.0 && p <= 1.0 && cost > 0.0,
               what + ": echoed precision and a positive checkpoint cost");
      r_.check(std::fabs(factor - expected) <= 1e-9 * expected,
               what + ": period_factor == 1/sqrt(1 - r~)");
      r_.check(std::fabs(work0 - factor * reactive.work0) <=
                   1e-9 * work0,
               what + ": stretched work_s == factor x reactive work_s");
    } catch (const std::exception& e) {
      r_.check(false, what + ": " + e.what());
    }
  }

 private:
  RunResult& r_;
};

/// Σ self_s of every phase row named `name` anywhere in /profile.json.
double profile_self_s(const JsonValue& node, const std::string& name) {
  double total = 0.0;
  if (node.is_object()) {
    if (node.has("name") && node.has("self_s") &&
        node.at("name").string() == name) {
      total += node.at("self_s").number();
    }
    for (const char* key : {"phases", "children"}) {
      if (node.has(key)) total += profile_self_s(node.at(key), name);
    }
  } else if (node.is_array()) {
    for (const auto& child : node.array()) total += profile_self_s(child, name);
  }
  return total;
}

/// Counter values and profile phases read from the daemon itself.
struct DaemonCounters {
  double plan_requests = 0.0;
  double refits = 0.0;
  double hits = 0.0;
  double misses = 0.0;
  double plan_fit_s = 0.0;
  double plan_cache_s = 0.0;
};

DaemonCounters read_counters(std::uint16_t port, RunResult& r) {
  DaemonCounters c;
  const HttpReply m = http_get(port, "/metrics", kRequestTimeoutMs);
  bool ok = m.status == 200 &&
            prometheus_value(m.body, "plan_http_requests_total",
                             c.plan_requests) &&
            prometheus_value(m.body, "plan_refits_total", c.refits) &&
            prometheus_value(m.body, "plan_cache_hits_total", c.hits) &&
            prometheus_value(m.body, "plan_cache_misses_total", c.misses);
  r.check(ok, "/metrics exposes the plan counters");
  const HttpReply p = http_get(port, "/profile.json", kRequestTimeoutMs);
  try {
    const JsonValue doc = JsonValue::parse(p.body);
    c.plan_fit_s = profile_self_s(doc, "plan.fit");
    c.plan_cache_s = profile_self_s(doc, "plan.cache");
  } catch (const std::exception& e) {
    r.check(false, std::string("/profile.json parses: ") + e.what());
  }
  return c;
}

}  // namespace

RunResult run_daemon_plan(const RunOptions& opts) {
  RunResult r;
  Checker check(r);

  pin_to_one_cpu();

  // Set-up: start harvestd until /readyz answers 200, several times; the
  // last daemon serves the measurement.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (std::size_t i = 0; i < kSetups; ++i) {
    daemon.reset();
    const double t0 = now_s();
    daemon = std::make_unique<Daemon>(opts.harvestd);
    daemon->wait_ready(120.0);
    setups.push_back(now_s() - t0);
  }
  const std::uint16_t port = daemon->port();

  // Warm machines: fitted and cached before timing; their reactive plans
  // anchor the predictor check.
  std::vector<ReactivePlan> warm(kWarmMachines);
  for (std::size_t m = 0; m < kWarmMachines; ++m) {
    Reply rep{http_get(port, "/plan?machine=" + machine_id(m),
                       kRequestTimeoutMs), 0.0};
    JsonValue doc;
    if (!check.plan(rep, "warm-up plan " + machine_id(m), &doc)) continue;
    const auto& s = doc.at("schedule").array();
    if (s.size() < 2) {
      r.check(false, "warm-up plan has two entries");
      continue;
    }
    warm[m] = {s[0].at("work_s").number(), s[0].at("age_s").number(),
               s[1].at("age_s").number()};
  }

  const DaemonCounters before = read_counters(port, r);

  std::mt19937_64 rng(opts.seed * 0x9E3779B97F4A7C15ULL + 7);
  // First-touch order: a seeded permutation of the machines never planned.
  std::vector<std::size_t> cold_order(kMachines - kWarmMachines);
  for (std::size_t i = 0; i < cold_order.size(); ++i) {
    cold_order[i] = kWarmMachines + i;
  }
  std::shuffle(cold_order.begin(), cold_order.end(), rng);
  std::size_t next_cold = 0;
  const std::size_t max_rounds = (kMachines - kWarmMachines) / kPerRound[kCold];
  std::vector<double> rounds;
  std::vector<double> latencies;
  std::vector<std::vector<double>> by_class(kClassCount);
  std::vector<double> metrics_bytes;
  std::uint64_t plan_sent = 0;
  std::size_t probes_failed = 0;
  double rss = -1.0;
  // harvestd's CPU time over the timed rounds, probes included (an idle
  // connection costs the server no CPU).
  const double cpu0 = process_cpu_s(daemon->pid());
  const RoundClock clock(opts.seconds, kMinRounds);
  while (clock.another(rounds.size()) && rounds.size() < max_rounds) {
    // The round's requests, shuffled so classes interleave.
    std::vector<Request> reqs;
    for (std::size_t k = 0; k < kPerRound[kCold]; ++k) {
      const std::size_t m = cold_order[next_cold++];
      reqs.push_back({kCold, "/plan?machine=" + machine_id(m), m});
    }
    for (std::size_t k = 0; k < kPerRound[kWarm]; ++k) {
      const std::size_t m = rng() % kWarmMachines;
      reqs.push_back({kWarm, "/plan?machine=" + machine_id(m), m});
    }
    for (std::size_t k = 0; k < kPerRound[kPredictor]; ++k) {
      const std::size_t m = rng() % kPredictorMachines;
      const double p = kGridP[rng() % std::size(kGridP)];
      const double rc = kGridR[rng() % std::size(kGridR)];
      const double window = kGridWindow[rng() % std::size(kGridWindow)];
      char buf[128];
      std::snprintf(buf, sizeof(buf), "/plan?machine=%s&p=%g&r=%g&window=%g",
                    machine_id(m).c_str(), p, rc, window);
      reqs.push_back({kPredictor, buf, m});
    }
    for (std::size_t k = 0; k < kPerRound[kMetrics]; ++k) {
      reqs.push_back({kMetrics, "/metrics"});
    }
    for (std::size_t k = 0; k < kPerRound[kProfile]; ++k) {
      reqs.push_back({kProfile, "/profile.json"});
    }
    for (std::size_t k = 0; k < kPerRound[kHealthz]; ++k) {
      reqs.push_back({kHealthz, "/healthz"});
    }
    std::shuffle(reqs.begin(), reqs.end(), rng);

    // Closed loop of one client: harvestd serves one connection at a time,
    // so a second client would only queue behind the first, and every
    // class's latency would include waiting for the others. Client and
    // server share one CPU (pin_to_one_cpu).
    std::vector<Reply> replies(reqs.size());
    const double t0 = now_s();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const double sent = now_s();
      replies[i].http = http_get(port, reqs[i].target, kRequestTimeoutMs);
      replies[i].latency_s = now_s() - sent;
    }
    rounds.push_back(now_s() - t0);

    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const Request& q = reqs[i];
      const Reply& rep = replies[i];
      ++r.attempted;
      if (!rep.http.ok || rep.http.status != 200) {
        ++r.failed;
        r.check(false, q.target + ": " +
                           (rep.http.ok ? "HTTP " + std::to_string(rep.http.status)
                                        : rep.http.error));
        continue;
      }
      latencies.push_back(rep.latency_s);
      by_class[q.cls].push_back(rep.latency_s);
      switch (q.cls) {
        case kCold:
        case kWarm:
          ++plan_sent;
          check.plan(rep, q.target);
          break;
        case kPredictor:
          ++plan_sent;
          check.predictor_plan(rep, warm[q.machine], q.target);
          break;
        case kMetrics:
          metrics_bytes.push_back(static_cast<double>(rep.http.body.size()));
          r.check(prometheus_samples(rep.http.body) > 0,
                  "/metrics has samples");
          break;
        case kProfile:
          try {
            r.check(JsonValue::parse(rep.http.body).is_object(),
                    "/profile.json is an object");
          } catch (const std::exception& e) {
            r.check(false, std::string("/profile.json: ") + e.what());
          }
          break;
        default:
          break;
      }
    }

    // Peak memory after a fixed amount of work: harvestd grows with every
    // machine it plans, so a faster server would otherwise read as bigger.
    if (rounds.size() == kMinRounds) {
      rss = process_peak_rss_mb(daemon->pid());
    }

    // Idle-client probe: outside the latency figures, one attempted
    // operation per round. It fails while the server handles one
    // connection at a time with no read deadline.
    ++r.attempted;
    if (!idle_client_probe(port, kProbeDeadlineMs, kProbeDrainMs)) {
      ++r.failed;
      ++probes_failed;
    }
  }

  const double cpu1 = process_cpu_s(daemon->pid());
  const DaemonCounters after = read_counters(port, r);
  r.check(after.plan_requests - before.plan_requests ==
              static_cast<double>(plan_sent),
          "plan_http_requests_total rose by the /plan requests sent");
  r.check(rss > 0.0, "harvestd VmHWM readable");
  daemon.reset();
  std::fprintf(stderr, "perfbench: daemon_plan: %zu idle-client probes "
               "failed\n", probes_failed);

  // run_s: one round's requests, each class at its median latency,
  // Σ n_c · p50_c. For a closed loop this is the round time of Little's law
  // with every class weighted by its count, so a slowdown of any class
  // moves it by that class's share. The plain mean is not used: scheduling
  // stalls of several milliseconds on this kind of host inflate it and
  // make it spread across runs of one commit.
  double round_s = 0.0;
  for (std::size_t c = 0; c < kClassCount; ++c) {
    r.check(!by_class[c].empty(), std::string(kClassNames[c]) + " replied");
    if (!by_class[c].empty()) {
      round_s += static_cast<double>(kPerRound[c]) * median(by_class[c]);
    }
  }
  if (!opts.trace) {
    add_end_to_end(r, setups, rounds.size(), round_s, rss);
    return r;
  }
  const auto p50_ms = [](const std::vector<double>& xs) {
    return xs.empty() ? 0.0 : 1000.0 * median(xs);
  };
  r.add("http.plan_cold_ms", p50_ms(by_class[kCold]), "ms");
  r.add("http.plan_warm_ms", p50_ms(by_class[kWarm]), "ms");
  r.add("http.plan_predictor_ms", p50_ms(by_class[kPredictor]), "ms");
  r.add("http.metrics_ms", p50_ms(by_class[kMetrics]), "ms");
  r.add("http.profile_ms", p50_ms(by_class[kProfile]), "ms");
  r.add("http.healthz_ms", p50_ms(by_class[kHealthz]), "ms");
  r.add("http.p50_ms", p50_ms(latencies), "ms");
  // Host scheduling stalls decide this tail on a shared virtual machine,
  // so it is reported here, without a bound.
  r.add("http.p99_ms",
        1000.0 * percentile(latencies, reportable_tail(latencies.size())),
        "ms");
  r.add("http.round_wall_s", median(rounds), "s");
  r.add("http.server_cpu_s",
        (cpu1 - cpu0) / static_cast<double>(rounds.size()), "s");
  r.add("http.metrics_bytes", metrics_bytes.empty() ? 0.0 : median(metrics_bytes),
        "bytes");
  const double n = static_cast<double>(rounds.size());
  const double hits = after.hits - before.hits;
  const double misses = after.misses - before.misses;
  r.add("plan.refits", (after.refits - before.refits) / n, "count");
  r.add("plan.cache_hits", hits / n, "count");
  r.add("plan.cache_misses", misses / n, "count");
  r.add("plan.cache_lookups", (hits + misses) / n, "count");
  r.add("plan.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
        "ratio");
  r.add("prof.plan.fit.s", (after.plan_fit_s - before.plan_fit_s) / n, "s");
  r.add("prof.plan.cache.s", (after.plan_cache_s - before.plan_cache_s) / n,
        "s");
  // The per-layer numbers here come from client timestamps taken in every
  // run and from the daemon's own /metrics and /profile.json, read outside
  // the timed rounds; nothing is added per request, so trace.* reads 0.
  return r;
}

}  // namespace perfbench
