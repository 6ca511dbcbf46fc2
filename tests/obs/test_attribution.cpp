// Attribution unit + integration tests: synthetic virtual-clock snapshots
// exercise every classifier branch (one test per root cause), the window
// joins against injector fires and supervisor kills, and the JSON schema;
// the integration tests check that native (TSC) and simulated (virtual)
// runs emit the SAME attribution schema and that a chaos run classifies
// every miss and termination with a non-unknown cause.
#include "obs/attribution.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "fault/injector.hpp"
#include "json_check.hpp"
#include "sim/sim_scheduler.hpp"

namespace rtseed::obs {
namespace {

using common::millis;
using common::u64;
using rtseed::test::is_valid_json;

TraceEvent ev(u64 ts, EventKind kind, common::JobId job = 1,
              common::i32 arg = 0, common::TaskId task = 0) {
  TraceEvent e;
  e.timestamp = ts;
  e.task = task;
  e.job = job;
  e.arg = arg;
  e.kind = kind;
  return e;
}

TelemetrySnapshot snap(std::vector<TraceEvent> events) {
  TelemetrySnapshot s;
  s.clock = ClockDomain::kVirtual;  // timestamps are plain nanoseconds
  ThreadTrace t;
  t.name = "synthetic";
  t.events = std::move(events);
  s.threads.push_back(std::move(t));
  s.task_names = {"tau"};
  return s;
}

// One well-behaved job: release 1000, mandatory [1100, 2100], hand-off
// [2100, 2200], optional [2200, 4200], wind-up [5000, 5500].
std::vector<TraceEvent> normal_job() {
  return {
      ev(1000, EventKind::kJobRelease),
      ev(1100, EventKind::kMandatoryBegin),
      ev(2100, EventKind::kMandatoryEnd),
      ev(2100, EventKind::kSignalBegin),
      ev(2200, EventKind::kSignalEnd),
      ev(2200, EventKind::kOptionalBegin),
      ev(4200, EventKind::kOptionalEnd),
      ev(5000, EventKind::kWindupBegin),
      ev(5500, EventKind::kWindupEnd),
      ev(5500, EventKind::kJobFinish),
  };
}

TEST(Attribution, DecomposesPhasesOfACompleteJob) {
  const auto report = attribute_jobs(snap(normal_job()));
  ASSERT_EQ(report.jobs.size(), 1u);
  const JobTimeline& t = report.jobs[0];
  EXPECT_TRUE(t.complete);
  EXPECT_FALSE(t.missed);
  EXPECT_EQ(t.miss_cause, RootCause::kNone);
  EXPECT_EQ(t.termination_cause, RootCause::kNone);
  EXPECT_EQ(t.phases.wake, 100);
  EXPECT_EQ(t.phases.mandatory, 1000);
  EXPECT_EQ(t.phases.handoff, 100);
  EXPECT_EQ(t.phases.optional, 2000);
  EXPECT_EQ(t.phases.optional_wait, 800);  // last close 4200 -> wind-up 5000
  EXPECT_EQ(t.phases.windup, 500);
  EXPECT_EQ(t.phases.response, 4500);
  EXPECT_EQ(t.phases.preempted, 0);
  ASSERT_EQ(report.tasks.size(), 1u);
  EXPECT_EQ(report.tasks[0].name, "tau");
  EXPECT_EQ(report.tasks[0].jobs, 1);
  EXPECT_EQ(report.tasks[0].complete_jobs, 1);
  EXPECT_EQ(report.tasks[0].misses, 0);
}

TEST(Attribution, WakeLatencyExplainsTheMiss) {
  // 2 ms of wake latency, 1 ms late: the wake alone explains the miss.
  std::vector<TraceEvent> events = {
      ev(0, EventKind::kJobRelease),
      ev(2000000, EventKind::kMandatoryBegin),
      ev(2100000, EventKind::kMandatoryEnd),
      ev(2100000, EventKind::kWindupBegin),
      ev(2200000, EventKind::kWindupEnd),
      ev(2200000, EventKind::kDeadlineMiss, 1, /*lateness us*/ 1000),
      ev(2200000, EventKind::kJobFinish),
  };
  const auto report = attribute_jobs(snap(std::move(events)));
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_TRUE(report.jobs[0].missed);
  EXPECT_EQ(report.jobs[0].lateness_ns, 1000000);
  EXPECT_EQ(report.jobs[0].miss_cause, RootCause::kWakeLatency);
}

TEST(Attribution, StolenTimeExplainsTheMiss) {
  // Wind-up ends early but the job-finish stamp lands 2 ms later: the
  // residual (preempted) phase exceeds the 1 ms lateness.
  std::vector<TraceEvent> events = {
      ev(0, EventKind::kJobRelease),
      ev(100, EventKind::kMandatoryBegin),
      ev(200, EventKind::kMandatoryEnd),
      ev(200, EventKind::kWindupBegin),
      ev(300, EventKind::kWindupEnd),
      ev(2000300, EventKind::kJobFinish),
      ev(2000300, EventKind::kDeadlineMiss, 1, /*lateness us*/ 1000),
  };
  const auto report = attribute_jobs(snap(std::move(events)));
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_GE(report.jobs[0].phases.preempted, 1000000);
  EXPECT_EQ(report.jobs[0].miss_cause, RootCause::kPreempted);
}

TEST(Attribution, ResidualMissIsOverload) {
  // Missed, but no single phase dominates the lateness: demand simply
  // exceeded the budget.
  auto events = normal_job();
  events.push_back(ev(5500, EventKind::kDeadlineMiss, 1, 1000000));
  const auto report = attribute_jobs(snap(std::move(events)));
  EXPECT_EQ(report.jobs[0].miss_cause, RootCause::kOverload);
}

TEST(Attribution, MandatoryOverrunWhenOptionalsDiscarded) {
  auto events = normal_job();
  events.push_back(ev(4500, EventKind::kOptionalsDiscarded));
  events.push_back(ev(5500, EventKind::kDeadlineMiss, 1, 500));
  const auto report = attribute_jobs(snap(std::move(events)));
  EXPECT_EQ(report.jobs[0].miss_cause, RootCause::kMandatoryOverrun);
  EXPECT_EQ(report.jobs[0].termination_cause, RootCause::kMandatoryOverrun);
}

TEST(Attribution, BudgetOverrunOutranksMandatoryOverrun) {
  auto events = normal_job();
  events.push_back(ev(4400, EventKind::kBudgetOverrun));
  events.push_back(ev(4500, EventKind::kOptionalsDiscarded));
  events.push_back(ev(5500, EventKind::kDeadlineMiss, 1, 500));
  const auto report = attribute_jobs(snap(std::move(events)));
  EXPECT_TRUE(report.jobs[0].budget_overrun);
  EXPECT_EQ(report.jobs[0].miss_cause, RootCause::kBudgetOverrun);
  EXPECT_EQ(report.jobs[0].termination_cause, RootCause::kBudgetOverrun);
}

TEST(Attribution, ClockAnomalyOutranksTimingCauses) {
  auto events = normal_job();
  events.push_back(ev(1000, EventKind::kClockAnomaly));
  events.push_back(ev(5500, EventKind::kDeadlineMiss, 1, 500));
  const auto report = attribute_jobs(snap(std::move(events)));
  EXPECT_EQ(report.jobs[0].miss_cause, RootCause::kClockAnomaly);
}

TEST(Attribution, TerminatedOptionalsAreOptionalOverrun) {
  auto events = normal_job();
  events.push_back(ev(4900, EventKind::kOptionalTerminated, 1, 1));
  const auto report = attribute_jobs(snap(std::move(events)));
  EXPECT_EQ(report.jobs[0].optional_terminated, 1);
  EXPECT_EQ(report.jobs[0].termination_cause, RootCause::kOptionalOverrun);
  EXPECT_EQ(report.tasks[0].terminations, 1);
}

TEST(Attribution, BreakerShedIsTerminationCause) {
  auto events = normal_job();
  events.push_back(ev(1050, EventKind::kOptionalShed, 1, /*parts*/ 2));
  const auto report = attribute_jobs(snap(std::move(events)));
  EXPECT_EQ(report.jobs[0].shed_parts, 2);
  EXPECT_EQ(report.jobs[0].termination_cause,
            RootCause::kCircuitBreakerShed);
}

TEST(Attribution, InjectorFiresJoinByTimeWindow) {
  // Two jobs; the single fire lands inside job 2's window only.
  std::vector<TraceEvent> events = normal_job();
  for (auto e : normal_job()) {
    e.timestamp += 10000;
    e.job = 2;
    events.push_back(e);
  }
  events.push_back(ev(11500 + 4000, EventKind::kDeadlineMiss, 2, 500));
  AttributionOptions options;
  fault::FireRecord fire;
  fire.timestamp = 12000;  // inside job 2's [11000, 15500] window
  options.fault_fires.push_back(fire);
  const auto report = attribute_jobs(snap(std::move(events)), options);
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_FALSE(report.jobs[0].injected_fault);
  EXPECT_TRUE(report.jobs[1].injected_fault);
  EXPECT_EQ(report.jobs[1].miss_cause, RootCause::kInjectedFault);
}

TEST(Attribution, ShardFailoverWindowJoinsAndClassifies) {
  auto events = normal_job();
  events.push_back(ev(5500, EventKind::kDeadlineMiss, 1, 500));
  AttributionOptions options;
  options.failover_windows.push_back(FailoverWindowRef{4000, 6000});
  const auto report = attribute_jobs(snap(std::move(events)), options);
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_TRUE(report.jobs[0].shard_failover);
  EXPECT_EQ(report.jobs[0].miss_cause, RootCause::kShardFailover);
  EXPECT_NE(report.to_json().find("\"miss_cause\":\"shard-failover\""),
            std::string::npos);
}

TEST(Attribution, DisjointFailoverWindowDoesNotJoin) {
  // Window entirely after the job: the miss stays attributed to its real
  // cause — survivors must record ZERO shard-failover misses.
  auto events = normal_job();
  events.push_back(ev(5500, EventKind::kDeadlineMiss, 1, 500));
  AttributionOptions options;
  options.failover_windows.push_back(FailoverWindowRef{9000, 12000});
  const auto report = attribute_jobs(snap(std::move(events)), options);
  EXPECT_FALSE(report.jobs[0].shard_failover);
  EXPECT_NE(report.jobs[0].miss_cause, RootCause::kShardFailover);
}

TEST(Attribution, OpenFailoverWindowExtendsForever) {
  auto events = normal_job();
  events.push_back(ev(5500, EventKind::kDeadlineMiss, 1, 500));
  AttributionOptions options;
  options.failover_windows.push_back(FailoverWindowRef{2000, 0});  // open
  const auto report = attribute_jobs(snap(std::move(events)), options);
  EXPECT_TRUE(report.jobs[0].shard_failover);
  EXPECT_EQ(report.jobs[0].miss_cause, RootCause::kShardFailover);
}

TEST(Attribution, SupervisorKillJoinsByTimeWindow) {
  // The supervisor stamps kills with a placeholder job id (it watches
  // workers, not jobs) on its own thread; attribution must land the kill
  // on the job whose window contains it.
  auto s = snap(normal_job());
  ThreadTrace supervisor;
  supervisor.name = "supervisor";
  supervisor.events.push_back(
      ev(3000, EventKind::kSupervisorKill, /*job placeholder*/ 0, 1));
  s.threads.push_back(std::move(supervisor));
  const auto report = attribute_jobs(s);
  ASSERT_EQ(report.jobs.size(), 1u);  // the placeholder creates no job
  EXPECT_TRUE(report.jobs[0].supervisor_kill);
  EXPECT_EQ(report.jobs[0].termination_cause, RootCause::kSupervisorKill);
}

TEST(Attribution, KillOutsideEveryWindowFlagsNothing) {
  auto s = snap(normal_job());
  ThreadTrace supervisor;
  supervisor.name = "supervisor";
  supervisor.events.push_back(ev(99999, EventKind::kSupervisorKill, 0, 1));
  s.threads.push_back(std::move(supervisor));
  const auto report = attribute_jobs(s);
  EXPECT_FALSE(report.jobs[0].supervisor_kill);
}

TEST(Attribution, IncompleteTimelineIsUnknown) {
  // Ring overflow dropped the job's finish: the classifier must refuse to
  // guess.
  std::vector<TraceEvent> events = {
      ev(1000, EventKind::kJobRelease),
      ev(1100, EventKind::kMandatoryBegin),
      ev(2100, EventKind::kDeadlineMiss, 1, 500),
  };
  const auto report = attribute_jobs(snap(std::move(events)));
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_FALSE(report.jobs[0].complete);
  EXPECT_EQ(report.jobs[0].miss_cause, RootCause::kUnknown);
}

TEST(Attribution, JsonIsValidAndVersioned) {
  auto events = normal_job();
  events.push_back(ev(4900, EventKind::kOptionalTerminated, 1, 1));
  events.push_back(ev(5500, EventKind::kDeadlineMiss, 1, 500));
  const auto report = attribute_jobs(snap(std::move(events)));
  const std::string json = report.to_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"rtseed-attribution-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"clock\":\"virtual\""), std::string::npos);
  EXPECT_FALSE(report.to_ascii().empty());
}

TEST(Attribution, ControlCharactersInTaskNamesStayValidJson) {
  auto snapshot = snap(normal_job());
  snapshot.task_names = {"tab\there\rcr\x01soh"};
  const std::string json = attribute_jobs(snapshot).to_json();
  EXPECT_TRUE(rtseed::test::JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"name\":\"tab\\there\\rcr\\u0001soh\""),
            std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// Schema determinism: a native (TSC) run and a simulator (virtual) run must
// produce attribution JSON with the same structure — same schema marker,
// same per-job keys, same per-task keys — so downstream tooling parses both
// without caring where the events came from.
// ---------------------------------------------------------------------------

const char* const kSchemaMarkers[] = {
    "\"schema\":\"rtseed-attribution-v1\"",
    "\"dropped_events\":",
    "\"jobs\":[",
    "\"tasks\":[",
    "\"miss_cause\":",
    "\"termination_cause\":",
    "\"optional\":{\"started\":",
    "\"flags\":{\"budget_overrun\":",
    "\"phases_ns\":{\"wake\":",
    "\"optional_wait\":",
    "\"preempted\":",
    "\"response\":",
    "\"miss_causes\":{",
    "\"termination_causes\":{",
};

std::string native_attribution_json() {
  core::RuntimeOptions options;
  options.initial_offset = millis(5);
  options.telemetry.enabled = true;
  core::Runtime runtime(options);
  core::TaskConfig tc;
  tc.params.name = "tau_native";
  tc.params.period = millis(40);
  tc.params.mandatory = millis(2);
  tc.params.windup = millis(2);
  tc.params.optional.push_back(millis(40));
  tc.num_jobs = 2;
  tc.callbacks.mandatory = [](const core::JobContext&) {};
  tc.callbacks.optional = [](const core::JobContext&, int,
                             core::StopToken& token) {
    // Polls so every termination strategy (and tsan) is happy.
    while (!token.should_stop()) {
    }
  };
  tc.callbacks.windup = [](const core::JobContext&) {};
  EXPECT_TRUE(runtime.admit(tc).is_ok());
  EXPECT_TRUE(runtime.start().is_ok());
  runtime.wait_all_finished();
  (void)runtime.stop_and_report();
  return attribute_jobs(runtime.telemetry_snapshot()).to_json();
}

std::string sim_attribution_json() {
  TelemetryOptions toptions;
  toptions.enabled = true;
  toptions.clock = ClockDomain::kVirtual;
  Telemetry telemetry(toptions);
  sched::TaskSet tasks;
  sched::ImpreciseTaskParams tau;
  tau.name = "tau_sim";
  tau.period = millis(10);
  tau.mandatory = millis(2);
  tau.windup = millis(1);
  tau.optional.push_back(millis(20));  // always cut at the OD
  tasks.add(tau);
  sim::SimOptions soptions;
  soptions.horizon = millis(100);
  soptions.telemetry = &telemetry;
  telemetry.set_task_name(0, tau.name);
  (void)sim::simulate_uniprocessor(tasks, soptions);
  return attribute_jobs(telemetry.snapshot()).to_json();
}

TEST(Attribution, NativeAndSimShareOneSchema) {
  const std::string native = native_attribution_json();
  const std::string sim = sim_attribution_json();
  ASSERT_TRUE(is_valid_json(native)) << native;
  ASSERT_TRUE(is_valid_json(sim)) << sim;
  EXPECT_NE(native.find("\"clock\":\"tsc\""), std::string::npos);
  EXPECT_NE(sim.find("\"clock\":\"virtual\""), std::string::npos);
  for (const char* marker : kSchemaMarkers) {
    EXPECT_NE(native.find(marker), std::string::npos)
        << "native report lacks " << marker;
    EXPECT_NE(sim.find(marker), std::string::npos)
        << "sim report lacks " << marker;
  }
}

// ---------------------------------------------------------------------------
// Chaos acceptance: with deterministic fault injection running, every miss
// and every termination must still get a real cause — kUnknown is reserved
// for dropped events, never for "the classifier gave up".
// ---------------------------------------------------------------------------

TEST(Attribution, ChaosRunClassifiesEverything) {
  fault::InjectorConfig config;
  config.with_rate(fault::InjectPoint::kLostWake, 1.0);
  config.max_fires_per_point = 3;
  fault::ScopedInjector scoped(config);

  core::RuntimeOptions options;
  options.initial_offset = millis(5);
  options.telemetry.enabled = true;
  core::Runtime runtime(options);  // wires the injector's timestamp source
  core::TaskConfig tc;
  tc.params.name = "tau_chaos";
  tc.params.period = millis(60);
  tc.params.mandatory = millis(2);
  tc.params.windup = millis(2);
  for (int k = 0; k < 2; ++k) tc.params.optional.push_back(millis(60));
  tc.num_jobs = 3;
  tc.callbacks.mandatory = [](const core::JobContext&) {};
  tc.callbacks.optional = [](const core::JobContext&, int,
                             core::StopToken& token) {
    while (!token.should_stop()) {
    }
  };
  tc.callbacks.windup = [](const core::JobContext&) {};
  ASSERT_TRUE(runtime.admit(tc).is_ok());
  ASSERT_TRUE(runtime.start().is_ok());
  runtime.wait_all_finished();
  (void)runtime.stop_and_report();

  AttributionOptions aoptions;
  aoptions.fault_fires = scoped.injector().fire_log();
  const auto report =
      attribute_jobs(runtime.telemetry_snapshot(), aoptions);
  ASSERT_FALSE(report.jobs.empty());
  EXPECT_EQ(report.dropped_events, 0u);
  long terminations = 0;
  for (const auto& job : report.jobs) {
    EXPECT_TRUE(job.complete) << "job " << job.job << " lost events";
    if (job.missed) {
      EXPECT_NE(job.miss_cause, RootCause::kUnknown) << "job " << job.job;
      EXPECT_NE(job.miss_cause, RootCause::kNone) << "job " << job.job;
    }
    terminations += job.termination_cause != RootCause::kNone;
    EXPECT_NE(job.termination_cause, RootCause::kUnknown);
  }
  // The always-overrunning optionals guarantee cut parts on every job.
  EXPECT_GT(terminations, 0);
  for (const auto& task : report.tasks) {
    const auto unknown = static_cast<common::usize>(RootCause::kUnknown);
    EXPECT_EQ(task.miss_causes[unknown], 0) << task.name;
    EXPECT_EQ(task.termination_causes[unknown], 0) << task.name;
  }
}

}  // namespace
}  // namespace rtseed::obs
