// perfbench — the repository benchmark program. perfbench/run.py builds it
// and passes --harvestd; see perfbench/README.md.
//
// usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --harvestd <path>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
#include <string>

#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"}, {"run_s", "s"}, {"peak_rss_mb", "MB"}};
  return kDefs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"fit.calls", "count"},
      {"fit.s", "s"},
      {"core.searches", "count"},
      {"core.gamma_evals", "count"},
      {"core.s", "s"},
      {"sim.periods", "count"},
      {"sim.s", "s"},
      {"server.submitted", "count"},
      {"server.completed", "count"},
      {"server.rejected", "count"},
      {"server.interrupted", "count"},
      {"server.wait_sim_s", "s"},
      {"predict.events", "count"},
      {"predict.alerts", "count"},
      {"predict.proactive_checkpoints", "count"},
      {"condor.placements", "count"},
      {"condor.evictions", "count"},
      {"condor.jobs_finished", "count"},
      {"prof.contended.negotiate.s", "s"},
      {"prof.contended.drain.s", "s"},
      {"prof.uncontended.negotiate.s", "s"},
      {"prof.uncontended.placement.s", "s"},
      {"prof.fit.models.s", "s"},
      {"prof.fit.block.s", "s"},
      {"prof.server.admission.s", "s"},
      {"prof.server.drain.s", "s"},
      {"prof.server.schedule.s", "s"},
      {"prof.fleet.submit.s", "s"},
      {"prof.fleet.drain.s", "s"},
      {"prof.plan.fit.s", "s"},
      {"prof.plan.cache.s", "s"},
      {"prof.coverage", "ratio"},
      {"http.plan_cold_ms", "ms"},
      {"http.plan_warm_ms", "ms"},
      {"http.plan_predictor_ms", "ms"},
      {"http.metrics_ms", "ms"},
      {"http.profile_ms", "ms"},
      {"http.healthz_ms", "ms"},
      {"http.p50_ms", "ms"},
      {"http.p99_ms", "ms"},
      {"http.round_wall_s", "s"},
      {"http.server_cpu_s", "s"},
      {"http.metrics_bytes", "bytes"},
      {"plan.refits", "count"},
      {"plan.cache_hits", "count"},
      {"plan.cache_misses", "count"},
      {"plan.cache_lookups", "count"},
      {"plan.cache_hit_ratio", "ratio"},
      {"trace.run_s", "s"},
      {"trace.overhead", "ratio"}};
  return kDefs;
}

void add_end_to_end(RunResult& r, const std::vector<double>& setups_s,
                    std::size_t rounds, double round_s, double peak_rss_mb) {
  r.add("setup_s", median(setups_s), "s");
  r.add("run_s", round_s, "s");
  r.add("peak_rss_mb", peak_rss_mb, "MB");
  std::printf("samples: %zu set-up samples, %zu rounds\n", setups_s.size(),
              rounds);
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  if (why != nullptr) std::fprintf(stderr, "perfbench: %s\n", why);
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_sweep|pool_contended|"
               "pool_park|daemon_plan>\n"
               "                 [--seed n] [--seconds s] [--trace 0|1] "
               "[--harvestd path]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opts;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      usage(nullptr);
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty() || value[0] == '-') {
        return usage("--seed takes a non-negative integer");
      }
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0.0) || !std::isfinite(opts.seconds)) {
        return usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opts.trace = value == "1";
    } else if (flag == "--harvestd") {
      opts.harvestd = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  RunResult r;
  try {
    if (workload == "paper_sweep") {
      r = run_paper_sweep(opts);
    } else if (workload == "pool_contended") {
      r = run_pool(opts, PoolKind::kContended);
    } else if (workload == "pool_park") {
      r = run_pool(opts, PoolKind::kPark);
    } else if (workload == "daemon_plan") {
      if (opts.harvestd.empty()) return usage("daemon_plan needs --harvestd");
      r = run_daemon_plan(opts);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }

  // Every metric of the selected list is reported; a layer the workload
  // does not exercise reads 0. Anything else is a benchmark bug.
  const std::vector<MetricDef>& defs =
      opts.trace ? per_layer_metrics() : end_to_end_metrics();
  std::map<std::string, std::string> unit_of;
  for (const MetricDef& d : defs) unit_of[d.name] = d.unit;
  std::set<std::string> have;
  for (const Metric& m : r.metrics) {
    const auto it = unit_of.find(m.name);
    if (it == unit_of.end() || it->second != m.unit ||
        !have.insert(m.name).second) {
      std::fprintf(stderr, "perfbench: unexpected metric %s [%s]\n",
                   m.name.c_str(), m.unit.c_str());
      return 1;
    }
    r.check(std::isfinite(m.value), "metric " + m.name + " is finite");
  }
  for (const MetricDef& d : defs) {
    if (have.count(d.name) == 0) r.add(d.name, 0.0, d.unit);
  }
  for (const std::string& v : r.violations) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", v.c_str());
  }
  std::printf("%s\n", result_json(r).c_str());
  std::fflush(stdout);
  return 0;
}
