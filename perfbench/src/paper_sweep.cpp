// paper_sweep: the paper's own experiment (Figs. 3-4, Tables 1 and 3).
// sim::run_sweep over the standard synthetic pool at the paper's ten
// checkpoint costs for the four model families. fit, the core T_opt search
// and the sim job walk do all the work.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "harvest/core/planner.hpp"
#include "harvest/dist/distribution.hpp"
#include "harvest/sim/experiment.hpp"
#include "harvest/sim/job_sim.hpp"
#include "harvest/sim/sweep.hpp"
#include "harvest/trace/synthetic.hpp"
#include "harvest/trace/trace.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace harvest;

// The standard synthetic pool of the repository's paper benches: 160
// machines with 120 recorded durations each (25 train, 95 test), pool seed
// 20050917. The workload seed scales every duration by its own factor drawn
// uniformly from [0.9, 1.1]: each seed changes every fit, schedule and walk,
// while the pool keeps the heavy-tailed shape the paper's results rest on.
// Drawing a fresh pool per seed instead makes the work itself heavy-tailed:
// the exponential schedules alone needed 60k-226k T_opt searches across ten
// seeds, because a schedule is expanded over the longest test period.
constexpr std::size_t kMachines = 160;
constexpr std::size_t kDurations = 120;
constexpr std::uint64_t kPoolSeed = 20050917;
constexpr double kJitter = 0.1;
// Set-up: 5 blocks of 150 pool generations (about 2 ms each).
constexpr std::size_t kSetupBlocks = 5;
constexpr std::size_t kSetupReps = 150;
constexpr std::size_t kMinRounds = 3;
const std::vector<double> kCosts = {50,  100, 200,  250,  400,
                                    500, 750, 1000, 1250, 1500};
// Costs at which the per-machine time partition is re-derived from
// sim::run_trace_experiment: the two ends of the paper's range.
const std::vector<double> kPartitionCosts = {50, 1500};

std::vector<trace::AvailabilityTrace> make_traces(std::uint64_t seed) {
  trace::PoolSpec spec;
  spec.machine_count = kMachines;
  spec.durations_per_machine = kDurations;
  spec.seed = kPoolSeed;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> factor(1.0 - kJitter, 1.0 + kJitter);
  std::vector<trace::AvailabilityTrace> traces;
  traces.reserve(kMachines);
  for (auto& m : trace::generate_pool(spec)) {
    for (double& d : m.trace.durations) d *= factor(rng);
    m.trace.timestamps.clear();  // no longer consistent with the durations
    traces.push_back(std::move(m.trace));
  }
  return traces;
}

sim::SweepConfig sweep_config() {
  sim::SweepConfig cfg;
  cfg.costs = kCosts;
  return cfg;
}

/// Forwards every call to a fitted model and counts conditional_survival
/// calls: core::MarkovModel makes exactly one per Γ(T) evaluation.
class CountingModel final : public dist::Distribution {
 public:
  CountingModel(dist::DistributionPtr inner, std::uint64_t* gamma_evals)
      : inner_(std::move(inner)), evals_(gamma_evals) {}
  double pdf(double x) const override { return inner_->pdf(x); }
  double log_pdf(double x) const override { return inner_->log_pdf(x); }
  double cdf(double x) const override { return inner_->cdf(x); }
  double survival(double x) const override { return inner_->survival(x); }
  double hazard(double x) const override { return inner_->hazard(x); }
  double mean() const override { return inner_->mean(); }
  double second_moment() const override { return inner_->second_moment(); }
  double quantile(double p) const override { return inner_->quantile(p); }
  double sample(numerics::Rng& rng) const override {
    return inner_->sample(rng);
  }
  double partial_expectation(double x) const override {
    return inner_->partial_expectation(x);
  }
  double conditional_survival(double t, double x) const override {
    ++*evals_;
    return inner_->conditional_survival(t, x);
  }
  double log_likelihood(std::span<const double> xs) const override {
    return inner_->log_likelihood(xs);
  }
  int parameter_count() const override { return inner_->parameter_count(); }
  std::string name() const override { return inner_->name(); }
  std::string describe() const override { return inner_->describe(); }
  std::unique_ptr<Distribution> clone() const override {
    return std::make_unique<CountingModel>(inner_, evals_);
  }

 private:
  dist::DistributionPtr inner_;
  std::uint64_t* evals_;
};

/// Per-machine outcome of the traced re-run, keyed like run_sweep pairs.
struct Outcome {
  double efficiency = 0.0;
  double network_mb = 0.0;
};

struct LayerCounts {
  std::uint64_t fits = 0;
  std::uint64_t searches = 0;
  std::uint64_t periods = 0;
};

/// The experiment loop of sim::run_trace_experiment written out with a
/// span around each call into the library: fit_model, the schedule
/// expanded eagerly over the longest test period (so the walk computes no
/// entry), and simulate_job_on_trace. Returns outcomes[cost][family][id].
std::vector<std::vector<std::map<std::string, Outcome>>> traced_sweep(
    const std::vector<trace::AvailabilityTrace>& traces, SpanTable* spans,
    LayerCounts& counts, std::uint64_t* gamma_evals) {
  const sim::SweepConfig cfg = sweep_config();
  std::vector<std::vector<std::map<std::string, Outcome>>> out(
      cfg.costs.size(),
      std::vector<std::map<std::string, Outcome>>(cfg.families.size()));
  for (std::size_t c = 0; c < cfg.costs.size(); ++c) {
    core::IntervalCosts costs;
    costs.checkpoint = cfg.costs[c];
    costs.recovery = cfg.costs[c];
    for (std::size_t f = 0; f < cfg.families.size(); ++f) {
      for (const auto& tr : traces) {
        const trace::TraceSplit split =
            trace::split_train_test(tr, cfg.experiment.train_count);
        dist::DistributionPtr model;
        try {
          Span s(spans, "fit");
          ++counts.fits;
          model = core::Planner::fit_model(split.train, cfg.families[f]);
        } catch (const std::exception&) {
          continue;  // run_trace_experiment skips unfittable machines too
        }
        if (gamma_evals != nullptr) {
          model = std::make_shared<CountingModel>(model, gamma_evals);
        }
        core::ScheduleOptions sched_opts;
        sched_opts.optimizer = cfg.experiment.optimizer;
        sched_opts.condition_on_age = cfg.experiment.condition_on_age;
        core::CheckpointSchedule schedule =
            core::Planner::make_schedule(model, costs, sched_opts);
        {
          Span s(spans, "core");
          const double longest =
              *std::max_element(split.test.begin(), split.test.end());
          for (std::size_t i = 0; schedule.entry(i).age <= longest; ++i) {
          }
        }
        counts.searches += schedule.computed();
        counts.periods += split.test.size();
        sim::JobSimResult res;
        {
          Span s(spans, "sim");
          res = sim::simulate_job_on_trace(split.test, schedule,
                                           cfg.experiment.job);
        }
        out[c][f][tr.machine_id] = {res.efficiency(), res.network_mb};
      }
    }
  }
  return out;
}

/// The traced re-run must reproduce run_sweep's paired vectors exactly.
bool same_as_sweep(
    const sim::SweepResult& sweep,
    const std::vector<std::vector<std::map<std::string, Outcome>>>& traced) {
  for (std::size_t c = 0; c < sweep.rows.size(); ++c) {
    const auto& row = sweep.rows[c];
    std::size_t k = 0;
    for (const auto& [id, first] : traced[c][0]) {
      (void)first;
      bool everywhere = true;
      for (const auto& fam : traced[c]) everywhere &= fam.count(id) != 0;
      if (!everywhere) continue;
      if (k >= row.machines()) return false;
      for (std::size_t f = 0; f < traced[c].size(); ++f) {
        const Outcome& o = traced[c][f].at(id);
        if (o.efficiency != row.efficiency[f][k] ||
            o.network_mb != row.network_mb[f][k]) {
          return false;
        }
      }
      ++k;
    }
    if (k != row.machines()) return false;
  }
  return true;
}

double mean_of(const std::vector<double>& xs) {
  return xs.empty() ? 0.0
                    : std::accumulate(xs.begin(), xs.end(), 0.0) /
                          static_cast<double>(xs.size());
}

void check_outputs(const std::vector<trace::AvailabilityTrace>& traces,
                   const sim::SweepResult& sweep, RunResult& r) {
  const sim::SweepConfig cfg = sweep_config();
  r.check(sweep.rows.size() == kCosts.size(), "sweep has one row per cost");

  // Table 3 ordering: the exponential schedule moves more data than the
  // 2-phase hyperexponential at every cost.
  for (const auto& row : sweep.rows) {
    r.check(row.machines() > 0, "sweep row has paired machines");
    r.check(mean_of(row.network_mb[0]) > mean_of(row.network_mb[2]),
            "exponential MB > 2-phase hyperexponential MB at C=" +
                std::to_string(row.cost));
    // A machine whose periods are all shorter than one recovery, interval
    // and checkpoint commits nothing, so a single machine may read 0; the
    // pool mean may not.
    for (const auto& fam : row.efficiency) {
      for (const double e : fam) {
        r.check(e >= 0.0 && e <= 1.0, "machine efficiency in [0, 1]");
      }
      r.check(mean_of(fam) > 0.0 && mean_of(fam) <= 1.0,
              "mean efficiency in (0, 1]");
    }
  }

  // Exponential fits: T_opt against the benchmark's own minimisation of
  // Eq. 11 at the fitted rate (the MLE 1/mean of the training prefix).
  const core::OptimizerOptions opt = cfg.experiment.optimizer;
  for (const auto& tr : traces) {
    const trace::TraceSplit split =
        trace::split_train_test(tr, cfg.experiment.train_count);
    const double mean = std::accumulate(split.train.begin(),
                                        split.train.end(), 0.0) /
                        static_cast<double>(split.train.size());
    const dist::DistributionPtr model = core::Planner::fit_model(
        split.train, core::ModelFamily::kExponential);
    r.check(std::fabs(model->mean() - mean) <= 1e-9 * mean,
            "exponential MLE mean on " + tr.machine_id);
    for (const double cost : kCosts) {
      core::IntervalCosts costs;
      costs.checkpoint = cost;
      costs.recovery = cost;
      core::ScheduleOptions so;
      so.optimizer = opt;
      core::CheckpointSchedule schedule =
          core::Planner::make_schedule(model, costs, so);
      const core::ScheduleEntry e = schedule.entry(0);
      const OracleOptimum o =
          eq11_exponential_optimum(1.0 / mean, cost, cost, opt.t_min, opt.t_max);
      const double ratio_prog =
          eq11_exponential_gamma(1.0 / mean, cost, cost, e.work_time) /
          e.work_time;
      // Golden section stops at a relative bracket of `tolerance`; allow
      // ten of those on T and the matching second-order slack on Γ/T.
      const bool t_ok = e.at_upper_bound
                            ? o.work >= opt.t_max * (1.0 - 10 * opt.tolerance)
                            : std::fabs(e.work_time - o.work) <=
                                  10 * opt.tolerance * o.work;
      r.check(t_ok && ratio_prog <= o.ratio * (1.0 + 1e-6),
              "exponential T_opt vs Eq. 11 on " + tr.machine_id + " at C=" +
                  std::to_string(cost));
    }
  }

  // Exact time partition, and agreement with the sweep's paired vectors,
  // from the per-machine results of run_trace_experiment.
  for (const double cost : kPartitionCosts) {
    sim::ExperimentConfig ec = cfg.experiment;
    ec.checkpoint_cost_s = cost;
    const auto row_it =
        std::find_if(sweep.rows.begin(), sweep.rows.end(),
                     [&](const sim::SweepRow& row) { return row.cost == cost; });
    for (std::size_t f = 0; f < cfg.families.size(); ++f) {
      const sim::ExperimentResult res =
          sim::run_trace_experiment(traces, cfg.families[f], ec);
      std::map<std::string, const sim::JobSimResult*> by_id;
      for (const auto& m : res.machines) {
        const sim::JobSimResult& s = m.sim;
        const double parts =
            s.useful_work + s.checkpoint_time + s.recovery_time + s.lost_time;
        r.check(std::fabs(s.total_time - parts) <= 1e-9 * s.total_time,
                "time partition on " + m.machine_id);
        r.check(s.efficiency() >= 0.0 && s.efficiency() <= 1.0,
                "experiment efficiency in [0, 1]");
        by_id[m.machine_id] = &s;
      }
      if (row_it == sweep.rows.end()) continue;
      // run_sweep keeps the machines every family fitted, in id order.
      std::size_t k = 0;
      for (const auto& [id, s] : by_id) {
        if (k < row_it->machines() &&
            row_it->efficiency[f][k] == s->efficiency() &&
            row_it->network_mb[f][k] == s->network_mb) {
          ++k;
        }
      }
      r.check(k == row_it->machines(),
              "sweep vectors match run_trace_experiment");
    }
  }
}

}  // namespace

RunResult run_paper_sweep(const RunOptions& opts) {
  RunResult r;
  // The previous pool is freed first, so peak memory holds one pool.
  std::vector<trace::AvailabilityTrace> traces;
  const std::vector<double> setups =
      time_setup_blocks(kSetupBlocks, kSetupReps, [&] {
        traces.clear();
        traces = make_traces(opts.seed);
      });

  const sim::SweepConfig cfg = sweep_config();
  std::vector<double> rounds;
  std::vector<double> traced_rounds;
  SpanTable spans;
  LayerCounts counts;
  sim::SweepResult sweep;
  bool traced_matches = true;
  double peak_rss_mb = 0.0;
  const RoundClock clock(opts.seconds, kMinRounds);
  while (clock.another(rounds.size())) {
    double t0 = now_s();
    sweep = sim::run_sweep(traces, cfg);
    rounds.push_back(now_s() - t0);
    ++r.attempted;
    // Peak memory after a fixed amount of work, so a faster program that
    // fits more rounds into the run does not read as a bigger one.
    if (rounds.size() == kMinRounds) peak_rss_mb = self_peak_rss_mb();
    if (opts.trace) {
      // Alternate untraced and traced rounds, so the overhead ratio
      // compares rounds taken under the same conditions.
      LayerCounts round_counts;
      t0 = now_s();
      const auto traced = traced_sweep(traces, &spans, round_counts, nullptr);
      traced_rounds.push_back(now_s() - t0);
      counts = round_counts;
      traced_matches &= same_as_sweep(sweep, traced);
    }
  }

  check_outputs(traces, sweep, r);
  if (!opts.trace) {
    add_end_to_end(r, setups, rounds.size(), median(rounds), peak_rss_mb);
    return r;
  }
  r.check(traced_matches, "traced re-run reproduces run_sweep exactly");
  std::uint64_t gamma_evals = 0;
  LayerCounts counted;
  const auto counted_run = traced_sweep(traces, nullptr, counted, &gamma_evals);
  r.check(same_as_sweep(sweep, counted_run),
          "counting re-run reproduces run_sweep exactly");
  const double n = static_cast<double>(traced_rounds.size());
  r.add("fit.calls", static_cast<double>(counts.fits), "count");
  r.add("fit.s", spans.self_s("fit") / n, "s");
  r.add("core.searches", static_cast<double>(counts.searches), "count");
  r.add("core.gamma_evals", static_cast<double>(gamma_evals), "count");
  r.add("core.s", spans.self_s("core") / n, "s");
  r.add("sim.periods", static_cast<double>(counts.periods), "count");
  r.add("sim.s", spans.self_s("sim") / n, "s");
  r.add("trace.run_s", median(traced_rounds), "s");
  r.add("trace.overhead", median(traced_rounds) / median(rounds), "ratio");
  return r;
}

}  // namespace perfbench
