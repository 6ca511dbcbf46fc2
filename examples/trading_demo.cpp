// The paper's motivating application (§II-A), end to end:
//
//   "the mandatory part obtains exchange data (e.g., EUR/USD) from a
//    stock company, the parallel optional parts conduct technical
//    analysis (e.g., Bollinger Bands) and/or fundamental analysis
//    (e.g., GDP) in parallel to improve QoS for a trading decision, and
//    the wind-up part collects the results from parallel optional parts
//    to make a trading decision and sends a trade request (i.e., bid or
//    ask) to the stock company or takes a wait-and-see attitude"
//
// A synthetic EUR/USD feed replaces the OANDA stream (same 1-per-period
// cadence); the period is scaled from the paper's 1 s to 100 ms so the
// demo finishes in ~6 seconds.
//
// Build & run:  ./build/examples/trading_demo
//   --trace out.json    the session timeline: record live telemetry and
//                       write a Perfetto trace with one track per thread
//                       and one lane per task part (open in
//                       ui.perfetto.dev or chrome://tracing); without it
//                       no timeline is written
//   --metrics out.prom  dump the Prometheus metrics after the run
//   --chaos seed        inject deterministic faults (lost wakes, worker
//                       stalls/deaths, EINTR storms) for that seed, with
//                       the supervisor + watchdog + breaker enabled — the
//                       session must still complete every job
//   --flight-record     keep an always-on flight recorder (last 256 events
//                       per thread); on a budget abort, supervisor kill,
//                       breaker trip, or fatal signal the recent history is
//                       dumped to flight-trading-<reason>-<n>.json
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/runtime.hpp"
#include "fault/injector.hpp"
#include "obs/attribution.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/perfetto_export.hpp"
#include "obs/prometheus_export.hpp"
#include "trading/trading_task.hpp"

using namespace rtseed;

namespace {

// Fatal-signal path of --flight-record: dump the recent history, then die
// with the default disposition.  The dump allocates (not async-signal-
// safe); the process is crashing anyway, so a rare secondary fault only
// costs us the dump.
void flight_dump_and_reraise(int signo) {
  obs::flight_trigger(signo == SIGSEGV ? "sigsegv" : "sigabrt");
  std::signal(signo, SIG_DFL);
  std::raise(signo);
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string metrics_path;
  bool chaos = false;
  bool flight_record = false;
  common::u64 chaos_seed = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--chaos") == 0 && i + 1 < argc) {
      chaos = true;
      chaos_seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--flight-record") == 0) {
      flight_record = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace out.json] [--metrics out.prom] "
                   "[--chaos seed] [--flight-record]\n"
                   "  --trace out.json  write the session timeline "
                   "(Perfetto trace)\n",
                   argv[0]);
      return 2;
    }
  }
  // Technical analyses (Bollinger, RSI, crossover, Monte-Carlo, candle
  // patterns) plus a fundamental GDP-differential analysis — six parallel
  // optional parts.
  std::vector<std::unique_ptr<trading::Analyzer>> analyzers;
  analyzers.push_back(std::make_unique<trading::BollingerAnalyzer>());
  analyzers.push_back(std::make_unique<trading::RsiAnalyzer>());
  analyzers.push_back(std::make_unique<trading::CrossoverAnalyzer>());
  analyzers.push_back(std::make_unique<trading::MonteCarloAnalyzer>());
  analyzers.push_back(std::make_unique<trading::CandleAnalyzer>());
  analyzers.push_back(std::make_unique<trading::GdpAnalyzer>(
      trading::MacroSeries("eurozone"),
      trading::MacroSeries("us", [] {
        trading::MacroSeriesConfig config;
        config.quarterly_growth = 0.004;
        config.seed = 17;
        return config;
      }())));

  trading::SyntheticFeedConfig feed_config;
  feed_config.initial_price = 1.1000;  // EUR/USD
  feed_config.annual_volatility = 0.09;

  trading::TradingSystemConfig config;
  config.period = common::millis(100);        // paper: 1 s (OANDA cadence)
  config.mandatory_wcet = common::millis(25); // paper: 250 ms, scaled 10x
  config.windup_wcet = common::millis(25);
  config.optional_time = common::millis(100);
  config.order_size = 1000.0;

  trading::TradingSystem system(
      std::make_unique<trading::SyntheticFeed>(feed_config),
      std::move(analyzers), config);

  core::RuntimeOptions options;
  options.policy = core::AssignmentPolicy::kOneByOne;
  // Live telemetry costs nothing unless requested.
  options.telemetry.enabled =
      !trace_path.empty() || !metrics_path.empty() || flight_record;
  if (flight_record) {
    options.telemetry.flight.enabled = true;
    options.telemetry.flight.tag = "trading";
    std::signal(SIGSEGV, &flight_dump_and_reraise);
    std::signal(SIGABRT, &flight_dump_and_reraise);
    std::printf("flight recorder on: last %zu events/thread, dumps to "
                "flight-trading-<reason>-<n>.json\n",
                options.telemetry.flight.events_per_thread);
  }
  std::unique_ptr<fault::ScopedInjector> injector;
  if (chaos) {
    // Seed-driven fault injection plus the full resilience stack; any
    // fixed seed reproduces the identical fault sequence.
    injector = std::make_unique<fault::ScopedInjector>(
        fault::InjectorConfig::chaos(chaos_seed, 0.05));
    options.supervisor.enabled = true;
    options.watchdog.enabled = true;
    options.breaker.enabled = true;
    std::printf("chaos mode: seed %llu, supervisor + watchdog + breaker on\n",
                static_cast<unsigned long long>(chaos_seed));
  }
  core::Runtime runtime(options);

  constexpr long kJobs = 60;
  if (auto st = runtime.admit(system.make_task_config(kJobs)); !st) {
    std::fprintf(stderr, "admit failed: %s\n", st.to_string().c_str());
    return 1;
  }
  const auto plan = runtime.analyze();
  if (!plan) {
    std::fprintf(stderr, "analysis: %s\n", plan.status().to_string().c_str());
    return 1;
  }
  std::printf("trader task: priorities %d/%d, optional deadline %s after "
              "release (OD = D - w)\n\n",
              plan->tasks[0].mandatory_priority,
              plan->tasks[0].optional_priority,
              common::format_duration(plan->tasks[0].optional_deadline)
                  .c_str());

  if (auto st = runtime.start(); !st) {
    std::fprintf(stderr, "start failed: %s\n", st.to_string().c_str());
    return 1;
  }
  runtime.wait_all_finished();
  auto report = runtime.stop_and_report();

  // The session timeline (per-thread tracks, one lane per task part).
  if (!trace_path.empty()) {
    const auto snapshot = runtime.telemetry_snapshot();
    if (auto st = obs::write_perfetto_trace(trace_path, snapshot); st) {
      std::printf("(telemetry trace: %llu events -> %s — open in "
                  "ui.perfetto.dev)\n",
                  static_cast<unsigned long long>(snapshot.total_events()),
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace export failed: %s\n",
                   st.to_string().c_str());
    }
  }
  if (!metrics_path.empty()) {
    (void)runtime.telemetry_snapshot();  // refresh mirrored drop counters
    if (auto st = obs::write_prometheus(metrics_path,
                                        runtime.telemetry()->metrics());
        st) {
      std::printf("(metrics -> %s)\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   st.to_string().c_str());
    }
  }
  std::printf("\n");

  const auto stats = system.stats();
  std::printf("=== trading session (%ld jobs @ %s) ===\n", stats.jobs,
              common::format_duration(config.period).c_str());
  std::printf("decisions: %ld bids, %ld asks, %ld wait-and-see\n", stats.bids,
              stats.asks, stats.waits);
  std::printf("QoS: %ld analyses delivered to fusion, %ld refinement "
              "iterations total\n",
              stats.analyses_available, stats.total_iterations);
  const auto& broker = system.broker();
  std::printf("broker: %ld fills, final position %.0f units, equity %.2f "
              "(P&L %.2f)\n",
              broker.num_fills(), broker.position(), broker.equity(),
              broker.equity() - 100000.0);
  std::printf("\nmiddleware report:\n%s", report.to_string().c_str());
  if (runtime.telemetry() != nullptr) {
    // Per-job root causes: every miss and every cut-short optional part
    // gets a named reason (obs/attribution.hpp).
    obs::AttributionOptions aoptions;
    if (fault::Injector* active = fault::active_injector()) {
      aoptions.fault_fires = active->fire_log();
    }
    const auto attribution =
        obs::attribute_jobs(runtime.telemetry_snapshot(), aoptions);
    std::printf("\nattribution:\n%s", attribution.to_ascii().c_str());
  }
  if (injector) {
    std::printf("\ninjected faults (seed %llu):\n",
                static_cast<unsigned long long>(chaos_seed));
    for (int p = 0; p < fault::kNumInjectPoints; ++p) {
      const auto point = static_cast<fault::InjectPoint>(p);
      const auto fired = injector->injector().injected(point);
      if (fired > 0) {
        std::printf("  %-14s x%llu\n", fault::inject_point_name(point),
                    static_cast<unsigned long long>(fired));
      }
    }
    std::printf("all %ld jobs completed despite injection — resilience "
                "layer held\n",
                stats.jobs);
  }

  // Show the last few decisions with their fused evidence.
  const auto decisions = system.decisions();
  std::printf("last 5 decisions:\n");
  for (size_t i = decisions.size() >= 5 ? decisions.size() - 5 : 0;
       i < decisions.size(); ++i) {
    const auto& d = decisions[i];
    std::printf("  job %zu: %-4s  fused=%+.3f  weight=%.2f  sources=%d\n", i,
                trading::decision_name(d.decision), d.fused_signal,
                d.total_weight, d.contributing);
  }
  return 0;
}
