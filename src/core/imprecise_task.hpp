// The running form of a parallel-extended imprecise task (paper §IV-C,
// Fig. 6): one mandatory thread executing the mandatory and wind-up parts
// at a SCHED_FIFO priority in the RTQ band, plus npᵢ parallel optional
// threads 49 priority levels below, each pinned to the hardware thread its
// assignment policy selected.
//
// Per-job protocol (exactly the paper's sequence):
//   mandatory thread                     optional thread k
//   ---------------------------------   ------------------------------
//   clock_nanosleep until release
//   execMandatory()
//   cond_signal each optional  ──────▶  cond_wait returns
//   cond_wait (completion)              sigsetjmp / arm OD timer
//                                       execOptional()   (until OD)
//                                       [timer → siglongjmp]
//             ◀──────────────────────   last part signals completion
//   execWindup()
//   clock_nanosleep until next release
//
// If the mandatory part has not completed by the optional deadline, the
// optional parts are DISCARDED (never signalled) and the wind-up part runs
// immediately — Fig. 1 / §II-B.  The optional-thread machinery lives in
// OptionalPool (shared with the multi-phase task of the practical
// imprecise computation model).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/spsc_ring.hpp"
#include "core/assignment.hpp"
#include "core/job_record.hpp"
#include "core/optional_pool.hpp"
#include "core/task_config.hpp"
#include "fault/breaker.hpp"
#include "fault/watchdog.hpp"
#include "obs/telemetry.hpp"
#include "rt/thread.hpp"
#include "rt/topology.hpp"

namespace rtseed::core {

/// Everything the offline P-RMWP analysis decided for this task.
struct TaskPlacement {
  int processor = 0;                ///< core of the mandatory thread
  int mandatory_priority = 0;       ///< SCHED_FIFO [50,98] (99 = HPQ); 0 = best-effort
  int optional_priority = 0;        ///< mandatory − 49; 0 = best-effort
  Nanos optional_deadline_offset = 0;  ///< ODᵢ relative to release
  /// No other task's mandatory thread shares `processor`.  Enables the
  /// periodic clock's early release wake (rt::PeriodicClock): its
  /// pre-release spin is execution the analysis does not count, so it is
  /// allowed only where it cannot delay another task's mandatory or
  /// wind-up part.
  bool exclusive_processor = false;
};

struct TaskRuntimeOptions {
  TerminationStrategy termination = TerminationStrategy::kSigjmp;
  AssignmentPolicy policy = AssignmentPolicy::kOneByOne;
  /// Extra time the mandatory thread waits past OD for the last optional
  /// part's completion signal before forcing stop tokens.
  Nanos completion_margin = common::millis(100);
  /// First release is delayed by this much after start() (synchronous
  /// release of all tasks).
  Nanos initial_offset = common::millis(10);
  /// Mandatory↔optional handoff mechanism (see core::WakeBackend).
  WakeBackend wake_backend = WakeBackend::kAuto;
  /// Per-job budget watchdog over the mandatory and wind-up parts
  /// (disabled by default; see fault::WatchdogConfig).
  fault::WatchdogConfig watchdog;
  /// Overload circuit breaker shedding optional parallelism under
  /// sustained deadline misses (disabled by default).
  fault::BreakerConfig breaker;
  /// Repair the blocked-signal defect of kTryCatch terminations between
  /// jobs (Table I row 3).  ON by default; OFF reproduces the published
  /// broken behavior.
  bool repair_signal_mask = true;
};

/// Observer for queue mirroring / tracing; called on the mandatory thread.
using TransitionObserver =
    std::function<void(common::TaskId, TaskTransition, Nanos now)>;

class ImpreciseTask {
 public:
  /// `topology` must outlive the task.
  ImpreciseTask(common::TaskId id, TaskConfig config, TaskPlacement placement,
                TaskRuntimeOptions options, const rt::Topology& topology);

  ImpreciseTask(const ImpreciseTask&) = delete;
  ImpreciseTask& operator=(const ImpreciseTask&) = delete;

  /// Joins all threads (a destructor never leaks a running thread).
  ~ImpreciseTask();

  /// Spawns the optional threads and the mandatory thread and begins
  /// periodic execution.  FAILED_PRECONDITION when already started.
  common::Status start();

  /// Asks the task to stop after the current job and joins all threads.
  void stop();

  /// Blocks until the configured num_jobs have run (or stop()).
  void wait_finished();

  bool running() const {
    return started_ && finished_word_.load(std::memory_order_acquire) == 0;
  }

  common::TaskId id() const { return id_; }
  const TaskConfig& config() const { return config_; }
  const TaskPlacement& placement() const { return placement_; }

  /// CPU of optional part k under the assignment policy.
  common::CpuId optional_cpu(int part_index) const;

  /// Drains job records accumulated so far (consumer side of the ring).
  std::vector<JobRecord> drain_records();

  /// Jobs whose records were dropped because the ring was full.
  common::u64 dropped_records() const { return records_dropped_.load(); }

  /// User-callback exceptions absorbed by the middleware (the job
  /// continues with degraded QoS; details go to the global logger).
  long callback_errors() const {
    return callback_errors_.load(std::memory_order_relaxed) +
           pool_->body_errors();
  }

  void set_transition_observer(TransitionObserver observer) {
    observer_ = std::move(observer);
  }

  /// Attaches the telemetry hub (before start()).  Registers this task's
  /// metric instruments; the mandatory and optional threads register
  /// their event rings on their own setup paths.  `telemetry` must
  /// outlive the task; nullptr (the default) keeps every emit site at a
  /// single untaken branch.
  void set_telemetry(obs::Telemetry* telemetry);

  /// Called on the mandatory thread right after a job misses its deadline
  /// (a watchdog hook for overrun handling / alerting).  Keep it cheap.
  using MissObserver =
      std::function<void(common::TaskId, const JobRecord&)>;
  void set_miss_observer(MissObserver observer) {
    miss_observer_ = std::move(observer);
  }

  /// Called on the mandatory thread at the checkpoint where a budget
  /// overrun was detected, after the policy was applied (the JobRecord
  /// carries mandatory_overrun / windup_overrun / aborted).  Keep it cheap.
  using OverrunObserver = std::function<void(common::TaskId,
                                             fault::BudgetPart,
                                             const JobRecord&)>;
  void set_overrun_observer(OverrunObserver observer) {
    overrun_observer_ = std::move(observer);
  }

  /// The task's optional pool, for supervisor registration
  /// (fault::SupervisedPool view).  Valid for the task's lifetime.
  OptionalPool* pool() { return pool_.get(); }

  /// The task's circuit breaker; nullptr unless options.breaker.enabled.
  const fault::CircuitBreaker* breaker() const { return breaker_.get(); }

  /// Budget overruns observed so far (mandatory + wind-up).
  long budget_overruns() const {
    return budget_overruns_.load(std::memory_order_relaxed);
  }

 private:
  void mandatory_loop();
  void run_one_job(JobId job_index, Nanos release);
  /// Applies the overrun ladder at a checkpoint; returns true when the
  /// rest of the job must be skipped (kAbortJob / kDemoteThread).
  bool handle_budget_overrun(fault::BudgetPart part, JobRecord& rec);
  void notify_transition(TaskTransition transition, Nanos now);
  void emit(obs::EventKind kind, JobId job, common::i32 arg = 0);
  void record_overheads(const JobRecord& rec);
  void mark_finished();

  const common::TaskId id_;
  const TaskConfig config_;
  const TaskPlacement placement_;
  const TaskRuntimeOptions options_;
  const rt::Topology& topology_;

  std::unique_ptr<OptionalPool> pool_;
  std::unique_ptr<rt::RtThread> mandatory_thread_;

  std::atomic<bool> active_{false};
  /// Wait word for wait_finished (rt::wait_word fast path): 0 = running
  /// (or not yet started, matching the seed semantics), 1 = finished.
  std::atomic<std::uint32_t> finished_word_{0};
  bool started_ = false;

  common::SpscRing<JobRecord> records_;
  std::atomic<common::u64> records_dropped_{0};
  std::atomic<long> callback_errors_{0};

  TransitionObserver observer_;
  MissObserver miss_observer_;
  OverrunObserver overrun_observer_;

  /// Budget watchdog of the mandatory thread (armed/disarmed there only).
  fault::BudgetWatchdog watchdog_;
  std::unique_ptr<fault::CircuitBreaker> breaker_;
  std::atomic<long> budget_overruns_{0};
  /// kDemoteThread fired (one demotion per task lifetime is enough).
  bool demoted_ = false;

  obs::Telemetry* telemetry_ = nullptr;
  obs::TraceBuffer* trace_ = nullptr;  ///< mandatory thread's event ring
  obs::TaskMetrics task_metrics_;
};

}  // namespace rtseed::core
