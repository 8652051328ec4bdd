// pool_contended and pool_park: condor::run_pool_simulation, the pool
// emulation spines, with the engine and megapool tuning left at the
// defaults a caller gets.
//
//  - pool_contended: every transfer goes through a 4-shard FIFO
//    server::ServerFleet, matching is random and the fault predictor is on
//    at its defaults. server and predict run only here.
//  - pool_park: a much larger park, uncontended, random matching, no
//    predictor. Park stepping and placement dominate; a change to the fleet
//    or to the planning hint should not move it.
#include <cmath>
#include <string>
#include <vector>

#include "harvest/condor/pool_simulation.hpp"
#include "harvest/obs/prof.hpp"
#include "harvest/trace/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace harvest;

// The park is the standard synthetic pool's machines (pool seed 20050917,
// as in the repository's megapool bench); the workload seed drives the
// simulation itself: spells, matching, transfers and predictor alerts.
constexpr std::uint64_t kParkSeed = 20050917;
constexpr std::size_t kSetupBlocks = 5;
constexpr std::size_t kMinRounds = 3;

struct Cell {
  std::size_t machines;
  double horizon_s;
  std::size_t jobs;
  bool contended;
  std::size_t setup_reps;  ///< park generations per timed set-up block
};

Cell cell(PoolKind kind) {
  constexpr double kDay = 86400.0;
  // A set-up block is about 0.2 s: a 2000-machine park takes about 2 ms,
  // a 20 000-machine one about 25 ms.
  return kind == PoolKind::kContended ? Cell{2000, 2.0 * kDay, 64, true, 100}
                                      : Cell{20000, 2.0 * kDay, 64, false, 8};
}

std::vector<condor::TimelinePool::MachineSpec> make_park(std::size_t n) {
  trace::PoolSpec spec;
  spec.machine_count = n;
  spec.durations_per_machine = 1;  // only the ground-truth laws are used
  spec.seed = kParkSeed;
  std::vector<condor::TimelinePool::MachineSpec> park;
  park.reserve(n);
  for (auto& m : trace::generate_pool(spec)) {
    condor::TimelinePool::MachineSpec s;
    s.id = m.trace.machine_id;
    s.availability_law = std::move(m.ground_truth);
    park.push_back(std::move(s));
  }
  return park;
}

condor::PoolSimConfig pool_config(const Cell& c, std::uint64_t seed) {
  condor::PoolSimConfig cfg;
  cfg.job_count = c.jobs;
  // Jobs sized to the horizon keep the queue busy for the whole run; the
  // work stays finite so the post-horizon drain ends.
  cfg.work_per_job_s = c.horizon_s;
  cfg.horizon_s = c.horizon_s;
  cfg.seed = seed + 1;
  if (c.contended) {
    server::FleetConfig fc;
    fc.shards = 4;
    fc.server.capacity_mbps = 24.0;
    fc.server.slots = 4;
    cfg.scenario.fleet = fc;  // FIFO scheduling is the server default
    cfg.scenario.predictor = predict::PredictorConfig{};
  }
  return cfg;
}

/// Results that must not depend on wall clock or on attached hooks.
bool same_results(const condor::PoolSimResult& a,
                  const condor::PoolSimResult& b) {
  if (a.makespan_s != b.makespan_s || a.jobs.size() != b.jobs.size()) {
    return false;
  }
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    const auto& x = a.jobs[j];
    const auto& y = b.jobs[j];
    if (x.finished != y.finished || x.completion_s != y.completion_s ||
        x.useful_work_s != y.useful_work_s || x.moved_mb != y.moved_mb ||
        x.placements != y.placements) {
      return false;
    }
  }
  return true;
}

void check_outputs(const Cell& c, const condor::PoolSimConfig& cfg,
                   const condor::PoolSimResult& res, RunResult& r) {
  r.check(res.jobs.size() == c.jobs, "one result per job");
  for (std::size_t j = 0; j < res.jobs.size(); ++j) {
    const auto& job = res.jobs[j];
    const std::string id = "job " + std::to_string(j);
    if (job.finished) {
      r.check(std::fabs(job.useful_work_s - cfg.work_per_job_s) <=
                  1e-9 * cfg.work_per_job_s,
              id + " finished with exactly work_per_job_s committed");
    } else {
      r.check(job.useful_work_s < cfg.work_per_job_s,
              id + " unfinished with less than work_per_job_s committed");
    }
    r.check(job.useful_work_s >= 0.0 && job.lost_work_s >= 0.0 &&
                job.moved_mb >= 0.0,
            id + " has non-negative work and traffic");
  }
  r.check(res.finished_count() > 0, "some job finished");
  r.check(res.server_enabled == c.contended, "fleet on iff contended");
  r.check(res.predictor_enabled == c.contended, "predictor on iff contended");
  if (!c.contended) return;

  double job_mb = 0.0;
  for (const auto& job : res.jobs) job_mb += job.moved_mb;
  const double ledger_mb = res.fleet.total.moved_mb;
  r.check(std::fabs(job_mb - ledger_mb) <= 1e-9 * std::max(1.0, ledger_mb),
          "sum of job moved_mb equals the fleet ledger");
  r.check(ledger_mb > 0.0, "the fleet moved data");

  const predict::PredictorStats& p = res.predictor;
  r.check(p.true_alerts + p.missed == p.events,
          "predictor true_alerts + missed == events");
  predict::PredictorStats sum;
  for (const auto& m : res.predictor_machines) sum += m;
  r.check(sum.events == p.events && sum.true_alerts == p.true_alerts &&
              sum.false_alerts == p.false_alerts && sum.missed == p.missed,
          "per-machine predictor slices sum to the aggregate");
  // Each reclamation gets its alert with probability `recall`, so the
  // observed recall is binomial; five standard deviations.
  const double rc = cfg.scenario.predictor->recall;
  r.check(p.events > 100, "enough predictor events for the recall band");
  if (p.events > 0) {
    const double sd =
        std::sqrt(rc * (1.0 - rc) / static_cast<double>(p.events));
    r.check(std::fabs(p.observed_recall() - rc) <= 5.0 * sd,
            "observed recall within the binomial band");
  }
}

const char* const kProfPhases[] = {
    "contended.negotiate", "contended.drain",   "uncontended.negotiate",
    "uncontended.placement", "fit.models",      "fit.block",
    "server.admission",    "server.drain",      "server.schedule",
    "fleet.submit",        "fleet.drain"};

}  // namespace

RunResult run_pool(const RunOptions& opts, PoolKind kind) {
  RunResult r;
  const Cell c = cell(kind);
  // The previous park is freed first, so peak memory holds one park.
  std::vector<condor::TimelinePool::MachineSpec> park;
  const std::vector<double> setups =
      time_setup_blocks(kSetupBlocks, c.setup_reps, [&] {
        park.clear();
        park = make_park(c.machines);
      });
  const condor::PoolSimConfig cfg = pool_config(c, opts.seed);

  std::vector<double> rounds;
  std::vector<double> traced_rounds;
  condor::PoolSimResult first;
  condor::PoolSimResult res;
  bool deterministic = true;
  double prof_self = 0.0;
  std::vector<double> phase_self(std::size(kProfPhases), 0.0);
  double peak_rss_mb = 0.0;
  const RoundClock clock(opts.seconds, kMinRounds);
  while (clock.another(rounds.size())) {
    double t0 = now_s();
    res = condor::run_pool_simulation(park, cfg);
    rounds.push_back(now_s() - t0);
    ++r.attempted;
    // Peak memory after a fixed amount of work, so a faster program that
    // fits more rounds into the run does not read as a bigger one.
    if (rounds.size() == kMinRounds) peak_rss_mb = self_peak_rss_mb();
    if (rounds.size() == 1) first = res;
    deterministic &= same_results(first, res);
    if (opts.trace) {
      obs::prof::PhaseProfiler profiler;
      condor::PoolSimConfig traced_cfg = cfg;
      traced_cfg.hooks.profiler = &profiler;
      t0 = now_s();
      const condor::PoolSimResult traced =
          condor::run_pool_simulation(park, traced_cfg);
      traced_rounds.push_back(now_s() - t0);
      deterministic &= same_results(first, traced);
      const obs::prof::ProfileReport report = profiler.report();
      for (const auto& row : report.phases) {
        if (!row.latency) prof_self += row.self_s;
      }
      for (std::size_t i = 0; i < std::size(kProfPhases); ++i) {
        phase_self[i] += report.self_seconds(kProfPhases[i]);
      }
    }
  }

  r.check(deterministic, "every round (traced or not) gives the same result");
  check_outputs(c, cfg, res, r);
  if (!opts.trace) {
    add_end_to_end(r, setups, rounds.size(), median(rounds), peak_rss_mb);
    return r;
  }
  std::uint64_t placements = 0;
  for (const auto& job : res.jobs) placements += job.placements;
  const double n = static_cast<double>(traced_rounds.size());
  const server::ServerStats& srv = res.fleet.total;
  double wait_s = 0.0;
  for (const auto& job : res.jobs) wait_s += job.server_wait_s;
  r.add("server.submitted", static_cast<double>(srv.submitted), "count");
  r.add("server.completed", static_cast<double>(srv.completed), "count");
  r.add("server.rejected", static_cast<double>(srv.rejected), "count");
  r.add("server.interrupted", static_cast<double>(srv.interrupted), "count");
  r.add("server.wait_sim_s", wait_s, "s");
  r.add("predict.events", static_cast<double>(res.predictor.events), "count");
  r.add("predict.alerts",
        static_cast<double>(res.predictor.true_alerts +
                            res.predictor.false_alerts),
        "count");
  r.add("predict.proactive_checkpoints",
        static_cast<double>(res.total_proactive_checkpoints()), "count");
  r.add("condor.placements", static_cast<double>(placements), "count");
  r.add("condor.evictions", static_cast<double>(res.total_evictions()),
        "count");
  r.add("condor.jobs_finished", static_cast<double>(res.finished_count()),
        "count");
  for (std::size_t i = 0; i < std::size(kProfPhases); ++i) {
    r.add(std::string("prof.") + kProfPhases[i] + ".s", phase_self[i] / n, "s");
  }
  double traced_total = 0.0;
  for (const double t : traced_rounds) traced_total += t;
  r.add("prof.coverage", prof_self / traced_total, "ratio");
  r.add("trace.run_s", median(traced_rounds), "s");
  r.add("trace.overhead", median(traced_rounds) / median(rounds), "ratio");
  return r;
}

}  // namespace perfbench
