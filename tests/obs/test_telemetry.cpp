// Telemetry end-to-end: disabled runs emit nothing, enabled runs produce
// a parseable Perfetto trace with per-part slices and a Prometheus dump
// with the paper's counters and overhead histograms.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "core/runtime.hpp"
#include "json_check.hpp"
#include "obs/perfetto_export.hpp"
#include "obs/prometheus_export.hpp"
#include "sim/sim_scheduler.hpp"

namespace rtseed::obs {
namespace {

using common::millis;
using rtseed::test::is_valid_json;

core::TaskConfig busy_task(const std::string& name, common::Nanos period,
                           int np, long jobs) {
  core::TaskConfig tc;
  tc.params.name = name;
  tc.params.period = period;
  tc.params.mandatory = period / 20;
  tc.params.windup = period / 20;
  for (int k = 0; k < np; ++k) tc.params.optional.push_back(period);
  tc.num_jobs = jobs;
  tc.callbacks.mandatory = [](const core::JobContext&) {};
  tc.callbacks.optional = [](const core::JobContext&, int,
                             core::StopToken&) {
    volatile double sink = 1.0;
    for (;;) sink = sink * 1.0000001 + 1e-9;
  };
  tc.callbacks.windup = [](const core::JobContext&) {};
  return tc;
}

TEST(Telemetry, DisabledRuntimeHasNoTelemetry) {
  core::RuntimeOptions options;  // telemetry.enabled defaults to false
  options.initial_offset = millis(5);
  core::Runtime runtime(options);
  ASSERT_TRUE(runtime.admit(busy_task("a", millis(40), 1, 2)).is_ok());
  ASSERT_TRUE(runtime.start().is_ok());
  runtime.wait_all_finished();
  (void)runtime.stop_and_report();
  EXPECT_EQ(runtime.telemetry(), nullptr);
  const TelemetrySnapshot snapshot = runtime.telemetry_snapshot();
  EXPECT_EQ(snapshot.total_events(), 0u);
  EXPECT_EQ(snapshot.total_dropped(), 0u);
  EXPECT_TRUE(snapshot.threads.empty());
}

TEST(Telemetry, EnabledRuntimeEmitsEventsAndMetrics) {
  core::RuntimeOptions options;
  options.initial_offset = millis(5);
  options.telemetry.enabled = true;
  core::Runtime runtime(options);
  ASSERT_TRUE(runtime.admit(busy_task("tau1", millis(40), 2, 3)).is_ok());
  ASSERT_TRUE(runtime.start().is_ok());
  runtime.wait_all_finished();
  (void)runtime.stop_and_report();

  ASSERT_NE(runtime.telemetry(), nullptr);
  const TelemetrySnapshot snapshot = runtime.telemetry_snapshot();
  EXPECT_GT(snapshot.total_events(), 0u);
  EXPECT_EQ(snapshot.task_name(0), "tau1");

  // Mandatory thread + 2 optional-pool threads + runtime control track.
  ASSERT_GE(snapshot.threads.size(), 4u);
  long releases = 0, mandatory_begin = 0, optional_begin = 0, windup_end = 0;
  for (const auto& thread : snapshot.threads) {
    for (const auto& event : thread.events) {
      releases += event.kind == EventKind::kJobRelease;
      mandatory_begin += event.kind == EventKind::kMandatoryBegin;
      optional_begin += event.kind == EventKind::kOptionalBegin;
      windup_end += event.kind == EventKind::kWindupEnd;
    }
  }
  EXPECT_EQ(releases, 3);
  EXPECT_EQ(mandatory_begin, 3);
  EXPECT_GT(optional_begin, 0);
  EXPECT_EQ(windup_end, 3);

  // Perfetto export: parseable, with the per-part lanes the ISSUE names.
  const std::string json = render_perfetto_trace(snapshot);
  EXPECT_TRUE(is_valid_json(json));
  EXPECT_NE(json.find("tau1/mandatory"), std::string::npos);
  EXPECT_NE(json.find("tau1/optional"), std::string::npos);
  EXPECT_NE(json.find("tau1/wind-up"), std::string::npos);

  // Prometheus export: per-task counters and Δ-overhead histograms.
  const std::string prom =
      render_prometheus(runtime.telemetry()->metrics());
  EXPECT_NE(prom.find("rtseed_jobs_released_total{task=\"tau1\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("rtseed_jobs_completed_total{task=\"tau1\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("rtseed_deadline_misses_total{task=\"tau1\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("rtseed_optional_terminated_total"),
            std::string::npos);
  for (const char* delta : {"m", "b", "s", "e"}) {
    EXPECT_NE(prom.find(std::string("delta=\"") + delta + "\""),
              std::string::npos)
        << "missing overhead histogram delta=" << delta;
  }
  // The CPU-hog optionals always overrun: Δe must have samples.
  EXPECT_NE(
      prom.find(
          "rtseed_overhead_nanoseconds_count{task=\"tau1\",delta=\"e\"}"),
      std::string::npos);
}

TEST(Telemetry, SnapshotAccumulatesAcrossCalls) {
  TelemetryOptions options;
  options.enabled = true;
  options.clock = ClockDomain::kVirtual;
  Telemetry telemetry(options);
  TraceBuffer* buffer = telemetry.register_thread("t");
  TraceEvent e;
  e.kind = EventKind::kJobRelease;
  e.timestamp = 1;
  buffer->emit(e);
  EXPECT_EQ(telemetry.snapshot().total_events(), 1u);
  e.timestamp = 2;
  buffer->emit(e);
  // The second snapshot still contains the first event.
  EXPECT_EQ(telemetry.snapshot().total_events(), 2u);
}

TEST(Telemetry, SimulatorEmitsSameSchema) {
  TelemetryOptions toptions;
  toptions.enabled = true;
  toptions.clock = ClockDomain::kVirtual;
  Telemetry telemetry(toptions);

  sched::TaskSet tasks;
  sched::ImpreciseTaskParams tau;
  tau.name = "sim_tau";
  tau.period = millis(10);
  tau.mandatory = millis(2);
  tau.windup = millis(1);
  tau.optional.push_back(millis(4));
  tasks.add(tau);

  sim::SimOptions soptions;
  soptions.horizon = millis(100);
  soptions.telemetry = &telemetry;
  soptions.telemetry_track = "sim.test";
  telemetry.set_task_name(0, tau.name);
  const auto result = sim::simulate_uniprocessor(tasks, soptions);
  EXPECT_GT(result.tasks[0].released, 0);

  const TelemetrySnapshot snapshot = telemetry.snapshot();
  ASSERT_EQ(snapshot.threads.size(), 1u);
  EXPECT_EQ(snapshot.threads[0].name, "sim.test");
  long releases = 0, mandatory = 0;
  for (const auto& event : snapshot.threads[0].events) {
    releases += event.kind == EventKind::kJobRelease;
    mandatory += event.kind == EventKind::kMandatoryBegin;
  }
  EXPECT_EQ(releases, result.tasks[0].released);
  EXPECT_GT(mandatory, 0);

  const std::string json = render_perfetto_trace(snapshot);
  EXPECT_TRUE(is_valid_json(json));
  EXPECT_NE(json.find("sim_tau/mandatory"), std::string::npos);
}

}  // namespace
}  // namespace rtseed::obs
