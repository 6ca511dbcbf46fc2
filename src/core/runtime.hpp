// RT-Seed runtime facade — the middleware's public entry point.
//
//   rtseed::core::Runtime runtime(options);
//   runtime.admit(task_config);            // any number of tasks
//   auto plan = runtime.analyze();         // offline P-RMWP analysis
//   runtime.start();                       // spawn threads, begin periods
//   runtime.wait_all_finished();           // or: run, then stop()
//   auto report = runtime.stop_and_report();
//
// analyze() runs the full offline pipeline (partitioning, RM priorities,
// optional deadlines) described in §IV-B; start() realizes the plan with
// SCHED_FIFO threads and never requires kernel modifications.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/imprecise_task.hpp"
#include "core/queues.hpp"
#include "core/qos.hpp"
#include "fault/supervisor.hpp"
#include "obs/telemetry.hpp"
#include "sched/p_rmwp.hpp"

namespace rtseed::core {

struct RuntimeOptions {
  rt::Topology topology = rt::Topology::native();
  AssignmentPolicy policy = AssignmentPolicy::kOneByOne;
  TerminationStrategy termination = TerminationStrategy::kSigjmp;
  /// Mandatory↔optional handoff: batched futex fast path (default) or the
  /// legacy condvar protocol (A/B baseline; see core::WakeBackend).
  WakeBackend wake_backend = WakeBackend::kAuto;
  sched::PRmwpOptions analysis;
  /// Mirror task transitions into a user-space ReadyQueues structure
  /// (observable via queue_snapshot(); small locking cost per transition).
  bool mirror_queues = false;
  /// mlockall() before spawning real-time threads (page faults inside
  /// mandatory/wind-up parts add unbounded latency).  Denial degrades
  /// gracefully, like SCHED_FIFO denial.
  bool lock_memory = false;
  /// Invoked (on the missing task's mandatory thread, so keep it cheap)
  /// whenever a job's wind-up part completes past its deadline.
  std::function<void(common::TaskId, const JobRecord&)> on_deadline_miss;
  /// Invoked (mandatory thread, keep it cheap) when a mandatory/wind-up
  /// part overran its WCET budget, after the OverrunPolicy was applied.
  std::function<void(common::TaskId, fault::BudgetPart, const JobRecord&)>
      on_budget_overrun;
  /// Per-job budget watchdog over mandatory/wind-up parts (off by default).
  fault::WatchdogConfig watchdog;
  /// Overload circuit breaker shedding optional parallelism (off by
  /// default); one breaker per task.
  fault::BreakerConfig breaker;
  /// Worker supervision: heartbeat monitoring, stall escalation, respawn
  /// of dead optional workers (off by default).
  fault::SupervisorConfig supervisor;
  /// Repair the blocked-signal defect of kTryCatch terminations between
  /// jobs (Table I row 3).  ON by default; OFF reproduces the published
  /// broken behavior (bench/table1_termination measures it explicitly).
  bool repair_signal_mask = true;
  Nanos completion_margin = common::millis(100);
  Nanos initial_offset = common::millis(10);
  /// Runtime telemetry (src/obs): per-thread event rings + metrics
  /// registry + Perfetto/Prometheus exporters.  Off by default; when off
  /// no telemetry object exists and every emit site costs one untaken
  /// branch (no locks, no allocation).
  obs::TelemetryOptions telemetry;
};

struct TaskReport {
  std::string name;
  sched::TaskPlan plan;
  QosSummary qos;
  OverheadSummary overheads;
  std::vector<JobRecord> records;
  common::u64 dropped_records = 0;

  // Resilience counters (all zero when the fault layer is off).
  long budget_overruns = 0;     ///< mandatory/wind-up budget violations
  long jobs_aborted = 0;        ///< jobs cut short by the overrun policy
  long wake_retries = 0;        ///< lost-wake recovery re-wakes
  common::u64 breaker_transitions = 0;
  common::u64 jobs_shed = 0;    ///< jobs that ran with reduced np
  int breaker_shed_level = 0;   ///< shed level at shutdown
};

struct RuntimeReport {
  std::vector<TaskReport> tasks;
  bool rt_degraded = false;  ///< some SCHED_FIFO/affinity request was denied
  fault::SupervisorStats supervisor;  ///< zeros when supervision is off
  std::string to_string() const;
};

class Runtime {
 public:
  explicit Runtime(RuntimeOptions options);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Registers a task.  FAILED_PRECONDITION once started; INVALID_ARGUMENT
  /// when the task parameters are malformed.
  common::Status admit(TaskConfig config);

  /// Runs the offline analysis over all admitted tasks.  Idempotent; also
  /// invoked lazily by start().  Fails when the set is not P-RMWP
  /// schedulable.
  common::Expected<sched::PRmwpPlan> analyze();

  /// Spawns all tasks.  FAILED_PRECONDITION when already started or when
  /// the analysis rejects the task set.
  common::Status start();

  /// Blocks until every task with a finite num_jobs has finished.
  void wait_all_finished();

  /// Stops all tasks (joining their threads) and produces the report.
  RuntimeReport stop_and_report();

  /// Stops without reporting.
  void stop();

  bool started() const { return started_; }
  int num_tasks() const { return static_cast<int>(configs_.size()); }
  const rt::Topology& topology() const { return options_.topology; }

  /// Snapshot of the mirrored queue sizes (requires mirror_queues).
  struct QueueSnapshot {
    usize hpq = 0, rtq = 0, nrtq = 0, sq = 0;
  };
  QueueSnapshot queue_snapshot() const;

  /// The telemetry hub (nullptr when RuntimeOptions::telemetry is off).
  /// Exporters take it directly: obs::render_perfetto_trace(snapshot),
  /// obs::render_prometheus(telemetry()->metrics()).
  obs::Telemetry* telemetry() { return telemetry_.get(); }

  /// Drains the event rings and returns everything collected so far
  /// (empty snapshot when telemetry is off).  Callable mid-run — the
  /// rings are SPSC, so draining never perturbs the producers.
  obs::TelemetrySnapshot telemetry_snapshot();

 private:
  void on_transition(common::TaskId task, TaskTransition transition, Nanos now);

  RuntimeOptions options_;
  std::vector<TaskConfig> configs_;
  std::unique_ptr<sched::PRmwpPlan> plan_;
  std::vector<std::unique_ptr<ImpreciseTask>> tasks_;
  /// Stopped BEFORE the tasks (its kill/respawn paths touch their pools).
  std::unique_ptr<fault::Supervisor> supervisor_;
  bool started_ = false;

  std::unique_ptr<obs::Telemetry> telemetry_;
  obs::TraceBuffer* control_trace_ = nullptr;  ///< start()/stop() events

  mutable std::mutex queues_mutex_;
  ReadyQueues queues_;
};

}  // namespace rtseed::core
