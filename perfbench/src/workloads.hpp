// The four workloads. Each runs whole rounds of a fixed operation set for
// the requested time, checks the program's outputs, and returns either the
// end-to-end metrics (trace off) or the per-layer metrics (trace on).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string harvestd;  ///< path to the built harvestd binary
};

/// Pool-workload flavours of the same entry point.
enum class PoolKind { kContended, kPark };

[[nodiscard]] RunResult run_paper_sweep(const RunOptions& opts);
[[nodiscard]] RunResult run_pool(const RunOptions& opts, PoolKind kind);
[[nodiscard]] RunResult run_daemon_plan(const RunOptions& opts);

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metric lists, in the order BENCHMARK.json declares them. Every
/// workload reports every metric of the list its trace mode selects (a
/// layer a workload does not exercise reads 0).
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// The end-to-end block every workload shares: set-up time (median of the
/// run's set-up samples), the time of one round, and peak memory.
void add_end_to_end(RunResult& r, const std::vector<double>& setups_s,
                    std::size_t rounds, double round_s, double peak_rss_mb);

}  // namespace perfbench
