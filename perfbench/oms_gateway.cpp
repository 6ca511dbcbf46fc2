// oms_gateway: ShardedRuntime with two shards on the native topology, each
// hosting one OmsTask symbol (np = 2 depth bands, 1 ms period, the other
// OmsTaskConfig values at their defaults).  Releases follow the periodic
// clock (open loop in release time); this thread drains the egress exec
// reports every kDrainInterval and never spins.
//
// The bands finish in microseconds, so the wind-up part starts on the
// early-completion wake: decision latency is core handoff + trading/lob
// work + the order-gateway hop.
#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "probe.hpp"
#include "rt/futex.hpp"
#include "sched/sharded.hpp"
#include "shard/sharded_runtime.hpp"
#include "trading/oms_task.hpp"

namespace perfbench {

namespace {

using rtseed::common::micros;
using rtseed::common::millis;
using rtseed::common::monotonic_now;
using rtseed::shard::MessageKind;
using rtseed::shard::ShardMessage;

constexpr int kShards = 2;
constexpr int kBands = 2;
constexpr int kSetups = 5;
constexpr long kWarmupJobs = 100;
constexpr Nanos kDrainInterval = micros(250);
constexpr std::size_t kJobRing = 4096;  ///< wind-up stamps kept for hop timing

/// Per-symbol state: the OmsTask, its probe, and what its job hook
/// accumulates on the mandatory thread (read after the runtime stopped).
struct Desk {
  u32 symbol = 0;
  int shard = -1;
  std::unique_ptr<rtseed::trading::OmsTask> task;
  std::unique_ptr<JobProbe> probe;
  rtseed::trading::OmsTask::Stats last{};
  u64 last_fills = 0;
  long band_iterations = 0;
  long market_events = 0;
  u64 fills = 0;
  Nanos optional_busy = 0;
  std::array<std::atomic<Nanos>, kJobRing> windup_out{};
  // Egress side (bench thread).
  long reports = 0;
  i64 last_report_job = -1;
  bool report_order_ok = true;
};

struct Deployment {
  std::vector<std::unique_ptr<Desk>> desks;
  std::unique_ptr<rtseed::shard::ShardedRuntime> runtime;
  double setup_s = 0.0;
  double analyze_ms = 0.0;
};

struct RunStats {
  std::vector<double> setup_s;
  std::vector<double> analyze_ms;
  ProbeHists hists;
  LatencyHist egress_hop;
  ProbeTotals totals;
  long aborted = 0;
  long band_iterations = 0;
  long market_events = 0;
  u64 fills = 0;
  long risk_rejects = 0;
  Nanos optional_busy = 0;
  u64 wakes = 0, sleeps = 0;
  u64 drops = 0;
  u64 messages = 0;
  long reports = 0;
  double depth_sum = 0.0;
  u64 depth_samples = 0;
  u64 depth_max = 0;
  u64 spans_dropped = 0;
  double peak_rss_mib = 0.0;
  std::vector<std::string> errors;
};

/// Two symbols whose hash homes differ, so each shard hosts one.
std::array<u32, kShards> pick_symbols(u64 seed) {
  std::array<u32, kShards> symbols{};
  symbols[0] = static_cast<u32>(derive_seed(seed, 1) & 0xFFFF);
  for (u64 salt = 2;; ++salt) {
    const auto candidate = static_cast<u32>(derive_seed(seed, salt) & 0xFFFF);
    if (rtseed::sched::home_shard(candidate, kShards) !=
        rtseed::sched::home_shard(symbols[0], kShards)) {
      symbols[1] = candidate;
      return symbols;
    }
  }
}

void drain_egress(Deployment& d, RunStats& stats, bool traced) {
  auto* transport = d.runtime->transport();
  for (auto& desk : d.desks) {
    while (ShardMessage* msg = transport->poll_result(desk->shard)) {
      const Nanos now = monotonic_now();
      if (msg->kind == MessageKind::kExecReport && msg->symbol == desk->symbol) {
        ++desk->reports;
        const i64 job = msg->body.exec.job;
        if (job <= desk->last_report_job) desk->report_order_ok = false;
        desk->last_report_job = job;
        if (traced) {
          const Nanos out = desk->windup_out[static_cast<std::size_t>(job) % kJobRing]
                                .load(std::memory_order_acquire);
          if (out != 0 && now >= out) stats.egress_hop.record_ns(now - out);
        }
      } else {
        stats.errors.push_back("unexpected egress message kind " +
                               std::to_string(static_cast<u32>(msg->kind)));
      }
      transport->release(msg);
    }
    const auto depth = transport->ingress_size_approx(desk->shard);
    stats.depth_sum += static_cast<double>(depth);
    ++stats.depth_samples;
    stats.depth_max = std::max<u64>(stats.depth_max, depth);
  }
}

/// Builds, analyzes and starts one deployment, returning once every shard
/// has had its first release.  Empty deployment (runtime null) on error.
Deployment set_up(const Options& options, bool traced, ProbeHists* hists,
                  std::vector<std::unique_ptr<SpanLog>>* spans,
                  std::vector<std::string>* errors) {
  Deployment d;
  const Nanos t0 = monotonic_now();
  const auto symbols = pick_symbols(options.seed);

  rtseed::shard::ShardedRuntimeOptions sharded;
  sharded.base.policy = rtseed::core::AssignmentPolicy::kOneByOne;
  sharded.base.termination = rtseed::core::TerminationStrategy::kSigjmp;
  sharded.num_shards = kShards;
  sharded.from_env = false;
  d.runtime = std::make_unique<rtseed::shard::ShardedRuntime>(sharded);

  for (int i = 0; i < kShards; ++i) {
    auto desk = std::make_unique<Desk>();
    desk->symbol = symbols[static_cast<std::size_t>(i)];
    rtseed::trading::OmsTaskConfig config;
    config.period = millis(1);
    config.num_bands = kBands;
    config.flow_seed = derive_seed(options.seed, 100 + static_cast<u64>(i));
    desk->task = std::make_unique<rtseed::trading::OmsTask>(config);
    SpanLog* log = traced ? spans->at(static_cast<std::size_t>(i)).get() : nullptr;
    desk->probe = std::make_unique<JobProbe>(desk->task->make_task_config(0),
                                             traced, kWarmupJobs, hists, log,
                                             static_cast<u32>(i));
    if (auto st = d.runtime->admit(desk->probe->wrapped(), desk->symbol); !st) {
      errors->push_back("admit: " + st.to_string());
      d.runtime.reset();
      return d;
    }
    d.desks.push_back(std::move(desk));
  }

  const Nanos ta = monotonic_now();
  auto plan = d.runtime->analyze();
  d.analyze_ms = static_cast<double>(monotonic_now() - ta) / 1e6;
  if (!plan.has_value()) {
    errors->push_back("analyze: " + plan.status().to_string());
    d.runtime.reset();
    return d;
  }
  for (auto& desk : d.desks) {
    desk->shard = d.runtime->shard_of(desk->symbol);
  }
  if (d.desks[0]->shard == d.desks[1]->shard) {
    errors->push_back("both symbols planned onto one shard");
    d.runtime.reset();
    return d;
  }

  for (auto& desk : d.desks) {
    Desk* k = desk.get();
    auto* runtime = d.runtime.get();
    // The transport exists only once start() runs; bind it from the
    // mandatory thread just before the first job touches it.
    k->probe->on_start([k, runtime] {
      k->task->bind_transport(runtime->transport(), k->shard, k->symbol);
    });
    k->probe->on_job([k, hists](const JobStamps& s) {
      const auto now_stats = k->task->stats();
      const auto& oms = k->task->oms().stats();
      const u64 fills = oms.taker_fills + oms.maker_fills;
      if (s.recorded) {
        const long refinements = now_stats.band_iterations - k->last.band_iterations;
        hists->decision_windows.add_work(s.offset, static_cast<u64>(refinements));
        k->band_iterations += refinements;
        k->market_events += now_stats.market_events - k->last.market_events;
        k->fills += fills - k->last_fills;
        k->optional_busy += s.optional_busy;
      }
      k->last = now_stats;
      k->last_fills = fills;
      k->windup_out[static_cast<std::size_t>(s.ctx->job) % kJobRing].store(
          s.windup_out, std::memory_order_release);
    });
  }

  if (auto st = d.runtime->start(); !st) {
    errors->push_back("start: " + st.to_string());
    d.runtime.reset();
    return d;
  }
  const Nanos give_up = monotonic_now() + rtseed::common::seconds(5);
  Nanos released = 0;
  for (;;) {
    bool all = true;
    released = 0;
    for (auto& desk : d.desks) {
      const Nanos r = desk->probe->first_release();
      if (r == 0) all = false;
      released = std::max(released, r);
    }
    if (all) break;
    if (monotonic_now() > give_up) {
      errors->push_back("no first release within 5 s");
      d.runtime->stop();
      d.runtime.reset();
      return d;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  d.setup_s = static_cast<double>(released - t0) / 1e9;
  return d;
}

RunStats run_once(const Options& options, bool traced, double seconds,
                  int setups, std::vector<std::unique_ptr<SpanLog>>* spans) {
  RunStats stats;
  stats.hists.init_windows(static_cast<int>(seconds) + 4);
  for (int i = 0; i < setups; ++i) {
    ProbeHists scratch;
    const bool last = i == setups - 1;
    Deployment d = set_up(options, traced && last, last ? &stats.hists : &scratch,
                          spans, &stats.errors);
    if (d.runtime == nullptr) return stats;
    stats.setup_s.push_back(d.setup_s);
    stats.analyze_ms.push_back(d.analyze_ms);
    if (!last) {
      d.runtime->stop();
      d.runtime.reset();
      continue;
    }

    const auto wake0 = rtseed::rt::wake_stats();
    const Nanos end = monotonic_now() + static_cast<Nanos>(seconds * 1e9);
    while (monotonic_now() < end) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(kDrainInterval));
      drain_egress(d, stats, traced);
    }
    auto report = d.runtime->stop_and_report();
    const auto wake1 = rtseed::rt::wake_stats();
    drain_egress(d, stats, traced);
    stats.peak_rss_mib = peak_rss_mib();
    stats.wakes = wake1.wake_calls - wake0.wake_calls;
    stats.sleeps = wake1.wait_sleeps - wake0.wait_sleeps;
    stats.drops = report.ingress_drops + report.egress_drops + report.pool_exhausted;
    for (const auto& shard : report.shards) {
      for (const auto& task : shard.tasks) stats.aborted += task.jobs_aborted;
    }

    for (auto& desk : d.desks) {
      const auto& p = *desk->probe;
      const auto task_stats = desk->task->stats();
      stats.totals.add(p);
      stats.band_iterations += desk->band_iterations;
      stats.market_events += desk->market_events;
      stats.fills += desk->fills;
      stats.risk_rejects += task_stats.orders_rejected;
      stats.optional_busy += desk->optional_busy;
      stats.drops += task_stats.transport_drops;
      stats.messages += task_stats.orders_via_transport +
                        task_stats.exec_reports_posted +
                        task_stats.transport_drops;
      stats.reports += desk->reports;
      // Verification: exactly one exec report per executed job, in job order.
      if (desk->reports != p.jobs()) {
        stats.errors.push_back("symbol " + std::to_string(desk->symbol) + ": " +
                               std::to_string(desk->reports) + " exec reports for " +
                               std::to_string(p.jobs()) + " jobs");
      }
      if (!desk->report_order_ok) {
        stats.errors.push_back("exec reports out of job order");
      }
    }
    d.runtime.reset();
  }
  for (const auto& log : *spans) stats.spans_dropped += log->dropped();
  return stats;
}

}  // namespace

Result run_oms_gateway(const Options& options) {
  Result result;
  std::vector<std::unique_ptr<SpanLog>> spans;
  for (int i = 0; i < kShards; ++i) {
    spans.push_back(std::make_unique<SpanLog>(
        options.trace ? static_cast<std::size_t>(options.seconds) * 1000 * 9 : 0));
  }

  // Untraced: the end-to-end figures.  Traced: an untraced half as the
  // reference, then a traced half for the per-layer figures.
  const double untraced_s = options.trace ? options.seconds / 2.0 : options.seconds;
  RunStats plain = run_once(options, false, untraced_s,
                            options.trace ? 1 : kSetups, &spans);
  RunStats traced;
  if (options.trace) traced = run_once(options, true, options.seconds / 2.0, 1, &spans);
  const RunStats& main = options.trace ? traced : plain;

  for (const auto& e : plain.errors) result.fail(e);
  for (const auto& e : traced.errors) result.fail(e);
  if (main.totals.recorded == 0) result.fail("no jobs recorded");

  result.attempted = static_cast<u64>(plain.totals.jobs) + plain.messages;
  result.failed = plain.drops + static_cast<u64>(plain.aborted);
  const double decision_us = plain.hists.decision_windows.p50_us();
  const double refinements = static_cast<double>(plain.band_iterations) /
                             std::max<double>(1.0, static_cast<double>(plain.totals.recorded));

  result.set("setup_s", median(plain.setup_s), "s");
  result.set("peak_rss_mb", plain.peak_rss_mib, "MB");
  result.set("ok_ratio",
             1.0 - static_cast<double>(result.failed) /
                       static_cast<double>(std::max<u64>(1, result.attempted)),
             "ratio");
  result.set("latency_p50_us", decision_us, "us");
  result.set("work_per_s", plain.hists.decision_windows.work_per_s(), "1/s");

  result.diag("decision_p50_us", decision_us, "us");
  result.diag("windows", plain.hists.decision_windows.complete_windows(), "count");
  result.diag("refinements_per_job", refinements, "count");
  result.diag("failed_ratio",
              static_cast<double>(result.failed) /
                  static_cast<double>(std::max<u64>(1, result.attempted)),
              "ratio");
  plain.hists.decision.report(result, "decision");
  result.diag("jobs", static_cast<double>(plain.totals.jobs), "count");
  result.diag("exec_reports", static_cast<double>(plain.reports), "count");

  if (!options.trace) return result;

  const ProbeHists& h = traced.hists;
  report_job_layers(result, h, traced.totals, traced.wakes, traced.sleeps);
  const double jobs = std::max<double>(1.0, static_cast<double>(traced.totals.recorded));
  result.set("trading.refinements_per_optional_ms",
             static_cast<double>(traced.band_iterations) /
                 std::max(1e-9, static_cast<double>(traced.optional_busy) / 1e6),
             "1/ms");
  const double events_per_job = static_cast<double>(traced.market_events) / jobs;
  result.set("lob.events_per_job", events_per_job, "count");
  result.set("lob.fills_per_job", static_cast<double>(traced.fills) / jobs, "count");
  result.set("lob.risk_rejects", static_cast<double>(traced.risk_rejects), "count");
  result.set("lob.mandatory_ns_per_event",
             events_per_job > 0 ? h.mandatory.percentile_ns(0.5) / events_per_job : 0.0,
             "ns");
  result.set("shard.ingress_depth_mean",
             traced.depth_samples > 0
                 ? traced.depth_sum / static_cast<double>(traced.depth_samples)
                 : 0.0,
             "count");
  result.set("shard.ingress_depth_max", static_cast<double>(traced.depth_max), "count");
  result.set("shard.egress_hop_us", traced.egress_hop.p50_us(), "us");
  result.set("shard.exec_reports", static_cast<double>(traced.reports), "count");
  result.set("shard.drops", static_cast<double>(traced.drops), "count");
  result.set("sched.analyze_ms", median(traced.analyze_ms), "ms");
  result.set("obs.trace_overhead_pct",
             decision_us > 0
                 ? 100.0 * (h.decision_windows.p50_us() / decision_us - 1.0)
                 : 0.0,
             "%");
  result.set("obs.spans_dropped", static_cast<double>(traced.spans_dropped), "count");
  traced.egress_hop.report(result, "shard.egress_hop");

  if (!options.out_dir.empty()) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      spans[i]->write_jsonl(options.out_dir + "/oms_gateway-seed" +
                            std::to_string(options.seed) + "-shard" +
                            std::to_string(i) + ".spans.jsonl");
    }
  }
  return result;
}

}  // namespace perfbench
