// paper_trading: the paper's §II-A application — core::Runtime running
// TradingSystem with np = 3 seeded MonteCarloAnalyzer parts, a 10 ms
// period and m = w = 1 ms, under kOneByOne placement and kSigjmp
// termination.  Every optional part refines until it is cut at the OD,
// so this workload exercises Δe and the amount of useful work done in the
// optional window; the lob and shard layers are bypassed.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/runtime.hpp"
#include "probe.hpp"
#include "rt/futex.hpp"
#include "trading/analyzers.hpp"
#include "trading/market_feed.hpp"
#include "trading/trading_task.hpp"

namespace perfbench {

namespace {

using rtseed::common::millis;
using rtseed::common::monotonic_now;

constexpr int kParts = 3;
constexpr int kSetups = 5;
/// MonteCarloAnalyzer needs 32 prices before it produces anything.
constexpr long kWarmupJobs = 32;
constexpr Nanos kPeriod = millis(10);
constexpr long kJobsPerSecond = rtseed::common::seconds(1) / kPeriod;

struct Trader {
  std::unique_ptr<rtseed::trading::TradingSystem> system;
  std::unique_ptr<JobProbe> probe;
  std::unique_ptr<rtseed::core::Runtime> runtime;  ///< declared last: stops first
  long num_jobs = 0;
  double setup_s = 0.0;
  double analyze_ms = 0.0;
  // Job hook accumulators (mandatory thread; read after the run).
  long last_iterations = 0;
  long iterations = 0;
  Nanos optional_busy = 0;
};

struct RunStats {
  std::vector<double> setup_s;
  std::vector<double> analyze_ms;
  ProbeHists hists;
  ProbeTotals totals;
  long iterations = 0;
  Nanos optional_busy = 0;
  u64 wakes = 0, sleeps = 0;
  long aborted = 0;
  double peak_rss_mib = 0.0;
  std::vector<std::string> errors;
};

std::unique_ptr<Trader> set_up(const Options& options, bool traced, long num_jobs,
                               ProbeHists* hists, SpanLog* spans,
                               std::vector<std::string>* errors) {
  auto t = std::make_unique<Trader>();
  const Nanos t0 = monotonic_now();

  rtseed::trading::SyntheticFeedConfig feed;
  feed.seed = derive_seed(options.seed, 1);
  std::vector<std::unique_ptr<rtseed::trading::Analyzer>> analyzers;
  for (int k = 0; k < kParts; ++k) {
    analyzers.push_back(std::make_unique<rtseed::trading::MonteCarloAnalyzer>(
        30, 256, derive_seed(options.seed, 10 + static_cast<u64>(k))));
  }
  rtseed::trading::TradingSystemConfig config;
  config.period = kPeriod;
  config.mandatory_wcet = millis(1);
  config.windup_wcet = millis(1);
  config.optional_time = kPeriod;
  t->system = std::make_unique<rtseed::trading::TradingSystem>(
      std::make_unique<rtseed::trading::SyntheticFeed>(feed), std::move(analyzers),
      config);

  rtseed::core::RuntimeOptions runtime_options;
  runtime_options.policy = rtseed::core::AssignmentPolicy::kOneByOne;
  runtime_options.termination = rtseed::core::TerminationStrategy::kSigjmp;
  t->runtime = std::make_unique<rtseed::core::Runtime>(runtime_options);
  t->num_jobs = num_jobs;
  t->probe = std::make_unique<JobProbe>(t->system->make_task_config(num_jobs), traced,
                                        kWarmupJobs, hists, spans, 0);
  Trader* raw = t.get();
  t->probe->on_job([raw, hists](const JobStamps& s) {
    const long total = raw->system->stats().total_iterations;
    if (s.recorded) {
      const long refinements = total - raw->last_iterations;
      hists->overshoot_windows.add_work(s.offset, static_cast<u64>(refinements));
      raw->iterations += refinements;
      raw->optional_busy += s.optional_busy;
    }
    raw->last_iterations = total;
  });
  if (auto st = t->runtime->admit(t->probe->wrapped()); !st) {
    errors->push_back("admit: " + st.to_string());
    return nullptr;
  }
  const Nanos ta = monotonic_now();
  auto plan = t->runtime->analyze();
  t->analyze_ms = static_cast<double>(monotonic_now() - ta) / 1e6;
  if (!plan.has_value()) {
    errors->push_back("analyze: " + plan.status().to_string());
    return nullptr;
  }
  if (auto st = t->runtime->start(); !st) {
    errors->push_back("start: " + st.to_string());
    return nullptr;
  }
  const Nanos give_up = monotonic_now() + rtseed::common::seconds(5);
  while (t->probe->first_release() == 0) {
    if (monotonic_now() > give_up) {
      errors->push_back("no first release within 5 s");
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  t->setup_s = static_cast<double>(t->probe->first_release() - t0) / 1e9;
  return t;
}

/// Outputs that must hold whatever the timing: every part of every job is
/// accounted completed, terminated or discarded, and one decision was
/// made per job.
void verify(Trader& t, const rtseed::core::RuntimeReport& report, RunStats& stats) {
  const long jobs = t.probe->jobs();
  if (report.tasks.size() != 1) {
    stats.errors.push_back("expected one task report");
    return;
  }
  const auto& task = report.tasks[0];
  stats.aborted += task.jobs_aborted;
  if (jobs + task.jobs_aborted != t.num_jobs) {
    stats.errors.push_back(std::to_string(jobs) + " wind-ups for " +
                           std::to_string(t.num_jobs) + " jobs");
  }
  if (static_cast<long>(task.records.size() + task.dropped_records) != t.num_jobs) {
    stats.errors.push_back("job records do not cover every job");
  }
  for (const auto& rec : task.records) {
    const int parts = rec.optional_completed + rec.optional_terminated +
                      rec.optional_discarded + rec.optional_shed;
    if (parts != kParts) {
      stats.errors.push_back("job " + std::to_string(rec.job) + " accounts for " +
                             std::to_string(parts) + " of " +
                             std::to_string(kParts) + " parts");
      break;
    }
  }
  const auto decisions = t.system->decisions().size();
  if (static_cast<long>(decisions) != jobs || t.system->stats().jobs != jobs) {
    stats.errors.push_back(std::to_string(decisions) + " decisions for " +
                           std::to_string(jobs) + " jobs");
  }
}

RunStats run_once(const Options& options, bool traced, double seconds, int setups,
                  SpanLog* spans) {
  RunStats stats;
  stats.hists.init_windows(static_cast<int>(seconds) + 4);
  const long num_jobs =
      kWarmupJobs + std::max<long>(1, static_cast<long>(seconds * kJobsPerSecond));
  for (int i = 0; i < setups; ++i) {
    ProbeHists scratch;
    const bool last = i == setups - 1;
    auto t = set_up(options, traced && last, num_jobs, last ? &stats.hists : &scratch,
                    traced && last ? spans : nullptr, &stats.errors);
    if (t == nullptr) return stats;
    stats.setup_s.push_back(t->setup_s);
    stats.analyze_ms.push_back(t->analyze_ms);
    if (!last) {
      t->runtime->stop();
      continue;
    }
    const auto wake0 = rtseed::rt::wake_stats();
    t->runtime->wait_all_finished();
    auto report = t->runtime->stop_and_report();
    const auto wake1 = rtseed::rt::wake_stats();
    stats.peak_rss_mib = peak_rss_mib();
    stats.wakes = wake1.wake_calls - wake0.wake_calls;
    stats.sleeps = wake1.wait_sleeps - wake0.wait_sleeps;
    stats.totals.add(*t->probe);
    stats.iterations = t->iterations;
    stats.optional_busy = t->optional_busy;
    verify(*t, report, stats);
  }
  return stats;
}

}  // namespace

Result run_paper_trading(const Options& options) {
  Result result;
  SpanLog spans(options.trace ? static_cast<std::size_t>(options.seconds) *
                                    kJobsPerSecond * 10
                              : 0);
  const double untraced_s = options.trace ? options.seconds / 2.0 : options.seconds;
  RunStats plain = run_once(options, false, untraced_s, options.trace ? 1 : kSetups,
                            &spans);
  RunStats traced;
  if (options.trace) traced = run_once(options, true, options.seconds / 2.0, 1, &spans);

  for (const auto& e : plain.errors) result.fail(e);
  for (const auto& e : traced.errors) result.fail(e);
  if (plain.totals.recorded == 0) result.fail("no jobs recorded");

  result.attempted = static_cast<u64>(plain.totals.jobs + plain.aborted);
  result.failed = static_cast<u64>(plain.aborted);
  const double overshoot_us = plain.hists.overshoot_windows.p50_us();
  const double refinements = static_cast<double>(plain.iterations) /
                             std::max<double>(1.0, static_cast<double>(plain.totals.recorded));

  result.set("setup_s", median(plain.setup_s), "s");
  result.set("peak_rss_mb", plain.peak_rss_mib, "MB");
  result.set("ok_ratio",
             1.0 - static_cast<double>(result.failed) /
                       static_cast<double>(std::max<u64>(1, result.attempted)),
             "ratio");
  result.set("latency_p50_us", overshoot_us, "us");
  result.set("work_per_s", plain.hists.overshoot_windows.work_per_s(), "1/s");

  result.diag("od_overshoot_p50_us", overshoot_us, "us");
  result.diag("windows", plain.hists.overshoot_windows.complete_windows(), "count");
  result.diag("refinements_per_job", refinements, "count");
  result.diag("failed_ratio",
              static_cast<double>(result.failed) /
                  static_cast<double>(std::max<u64>(1, result.attempted)),
              "ratio");
  plain.hists.overshoot.report(result, "od_overshoot");
  plain.hists.decision.report(result, "decision");
  result.diag("jobs", static_cast<double>(plain.totals.jobs), "count");

  if (!options.trace) return result;

  const ProbeHists& h = traced.hists;
  report_job_layers(result, h, traced.totals, traced.wakes, traced.sleeps);
  result.set("trading.refinements_per_optional_ms",
             static_cast<double>(traced.iterations) /
                 std::max(1e-9, static_cast<double>(traced.optional_busy) / 1e6),
             "1/ms");
  result.set("sched.analyze_ms", median(traced.analyze_ms), "ms");
  result.set("obs.trace_overhead_pct",
             overshoot_us > 0
                 ? 100.0 * (h.overshoot_windows.p50_us() / overshoot_us - 1.0)
                 : 0.0,
             "%");
  result.set("obs.spans_dropped", static_cast<double>(spans.dropped()), "count");
  h.terminate.report(result, "core.terminate");
  h.overshoot.report(result, "traced.od_overshoot");

  if (!options.out_dir.empty()) {
    spans.write_jsonl(options.out_dir + "/paper_trading-seed" +
                      std::to_string(options.seed) + ".spans.jsonl");
  }
  return result;
}

}  // namespace perfbench
