#include "core/imprecise_task.hpp"

#include <algorithm>

#include <limits>

#include "common/rt_logger.hpp"
#include "fault/injector.hpp"
#include "obs/flight_recorder.hpp"
#include "rt/futex.hpp"
#include "rt/periodic_clock.hpp"

namespace rtseed::core {

namespace {

// An exception escaping a user callback must not tear down the middleware:
// the job continues (degraded QoS / empty part), the error is counted and
// logged from the non-real-time drain.
template <typename Fn>
bool run_guarded(const char* part, const char* task, Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    common::global_logger().error("%s: exception in %s part: %s", task, part,
                                  e.what());
  } catch (...) {
    common::global_logger().error("%s: unknown exception in %s part", task,
                                  part);
  }
  return false;
}

}  // namespace

ImpreciseTask::ImpreciseTask(common::TaskId id, TaskConfig config,
                             TaskPlacement placement,
                             TaskRuntimeOptions options,
                             const rt::Topology& topology)
    : id_(id),
      config_(std::move(config)),
      placement_(placement),
      options_(options),
      topology_(topology),
      records_(4096) {
  OptionalPool::Options pool_options;
  pool_options.termination = options_.termination;
  pool_options.fifo_priority = placement_.optional_priority;
  // kTopologyAware keeps optional parts off the mandatory thread's
  // physical core (placement.processor is a core index) and fills its LLC
  // domain first; the paper's three policies ignore the hint.
  const int mandatory_core =
      placement_.processor >= 0 && placement_.processor < topology.num_cores()
          ? placement_.processor
          : -1;
  pool_options.cpus =
      assign_optional_parts(topology, options_.policy,
                            config_.params.num_optional(), mandatory_core);
  pool_options.name_prefix = config_.params.name;
  pool_options.completion_margin = options_.completion_margin;
  pool_options.wake_backend = options_.wake_backend;
  pool_options.repair_signal_mask = options_.repair_signal_mask;
  pool_ = std::make_unique<OptionalPool>(
      std::move(pool_options),
      [this](const JobContext& ctx, int part, StopToken& token) {
        if (config_.callbacks.optional) {
          config_.callbacks.optional(ctx, part, token);
        }
      });
  if (options_.breaker.enabled) {
    breaker_ = std::make_unique<fault::CircuitBreaker>(options_.breaker);
  }
}

ImpreciseTask::~ImpreciseTask() { stop(); }

void ImpreciseTask::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  telemetry_->set_task_name(id_, config_.params.name);
  task_metrics_ = telemetry_->register_task_metrics(
      config_.params.name, termination_strategy_name(options_.termination));
  pool_->set_telemetry(telemetry_, id_);
}

void ImpreciseTask::emit(obs::EventKind kind, JobId job, common::i32 arg) {
  if (trace_ == nullptr) return;  // telemetry disabled: one untaken branch
  trace_->emit({telemetry_->now(), id_, job, arg, kind});
}

void ImpreciseTask::record_overheads(const JobRecord& rec) {
  if (task_metrics_.delta_m == nullptr) return;
  // Tail histograms record nanoseconds (JobRecord timestamps are ns).
  task_metrics_.delta_m->record(static_cast<common::u64>(rec.delta_m()));
  if (rec.optionals_ran) {
    task_metrics_.delta_b->record(static_cast<common::u64>(rec.delta_b()));
    if (rec.first_optional_start > 0) {
      task_metrics_.delta_s->record(static_cast<common::u64>(rec.delta_s()));
    }
    // Δe is only meaningful when at least one part overran its deadline
    // and had to be terminated (JobRecord::delta_e()).
    if (rec.optional_terminated > 0) {
      task_metrics_.delta_e->record(static_cast<common::u64>(rec.delta_e()));
    }
  }
  if (rec.windup_end >= rec.release) {
    task_metrics_.response_time->record(
        static_cast<common::u64>(rec.windup_end - rec.release));
  }
}

common::CpuId ImpreciseTask::optional_cpu(int part_index) const {
  return pool_->cpu(part_index);
}

common::Status ImpreciseTask::start() {
  if (started_) return common::failed_precondition("task already started");
  started_ = true;
  active_.store(true, std::memory_order_release);
  finished_word_.store(0, std::memory_order_release);

  // Optional threads first: they park in cond_wait before any job runs.
  if (auto st = pool_->start(); !st) return st;

  rt::ThreadConfig mc;
  mc.name = config_.params.name + ".m";
  mc.fifo_priority = placement_.mandatory_priority;
  mc.affinity =
      rt::CpuSet::single(topology_.cpu_at(placement_.processor, 0));
  mandatory_thread_ =
      std::make_unique<rt::RtThread>(mc, [this] { mandatory_loop(); });
  return common::Status::ok();
}

void ImpreciseTask::stop() {
  if (!started_) return;
  active_.store(false, std::memory_order_release);
  if (mandatory_thread_) mandatory_thread_->join();
  pool_->shutdown();
  mandatory_thread_.reset();
  started_ = false;
  mark_finished();
}

void ImpreciseTask::mark_finished() {
  finished_word_.store(1, std::memory_order_release);
  rt::wake_word(finished_word_, std::numeric_limits<int>::max());
}

void ImpreciseTask::wait_finished() {
  rt::wait_word(finished_word_, 0);
}

void ImpreciseTask::notify_transition(TaskTransition transition, Nanos now) {
  if (observer_) observer_(id_, transition, now);
}

void ImpreciseTask::mandatory_loop() {
  // Register the event ring on the thread's setup path, before the first
  // release: run_one_job then never locks or allocates to emit.
  if (telemetry_ != nullptr) {
    trace_ = telemetry_->register_thread(
        config_.params.name + ".m",
        topology_.cpu_at(placement_.processor, 0));
    pool_->set_caller_trace(trace_);
  }

  // The budget watchdog's timer must be created on the thread it targets.
  if (options_.watchdog.enabled) {
    if (auto st = watchdog_.init(); !st) {
      common::global_logger().warn("%s: budget watchdog unavailable: %s",
                                   config_.params.name.c_str(),
                                   st.to_string().c_str());
    }
  }

  rt::PeriodicClock clock(config_.params.period, options_.initial_offset,
                          /*early_wake=*/placement_.exclusive_processor);
  clock.start();

  // num_jobs counts EXECUTED jobs (the paper: "the number of jobs
  // executed in task τ1 is set to 100"): releases skipped because a
  // previous job overran do not count.
  const long max_jobs = config_.num_jobs;
  long executed = 0;
  while (active_.load(std::memory_order_acquire)) {
    if (max_jobs > 0 && executed >= max_jobs) break;
    const Nanos release = clock.wait_next_release();
    if (!active_.load(std::memory_order_acquire)) break;
    run_one_job(clock.job_index(), release);
    ++executed;
  }

  mark_finished();
}

bool ImpreciseTask::handle_budget_overrun(fault::BudgetPart part,
                                          JobRecord& rec) {
  const fault::OverrunPolicy policy = options_.watchdog.policy;
  budget_overruns_.fetch_add(1, std::memory_order_relaxed);
  if (part == fault::BudgetPart::kMandatory) {
    rec.mandatory_overrun = true;
  } else {
    rec.windup_overrun = true;
  }
  emit(obs::EventKind::kBudgetOverrun, rec.job, static_cast<common::i32>(part));
  if (task_metrics_.budget_overruns) task_metrics_.budget_overruns->increment();
  common::global_logger().warn("%s: %s budget overrun on job %ld (policy %s)",
                               config_.params.name.c_str(),
                               fault::budget_part_name(part), rec.job,
                               fault::overrun_policy_name(policy));
  const bool abort = policy == fault::OverrunPolicy::kAbortJob ||
                     policy == fault::OverrunPolicy::kDemoteThread;
  if (policy == fault::OverrunPolicy::kDemoteThread && !demoted_) {
    // The last rung: a task that keeps lying about its WCET loses its
    // right to preempt well-behaved tasks.  Once per task lifetime.
    demoted_ = true;
    if (rt::demote_current_thread()) {
      common::global_logger().warn("%s: demoted mandatory thread to %s",
                                   config_.params.name.c_str(), "SCHED_OTHER");
    }
  }
  if (abort) {
    rec.aborted = true;
    if (task_metrics_.jobs_aborted) task_metrics_.jobs_aborted->increment();
    // The job is being cut short: preserve the recent event history
    // before the abort path tears the in-flight state down.
    obs::flight_trigger("budget-overrun");
  }
  if (overrun_observer_) {
    if (!run_guarded("overrun-observer", config_.params.name.c_str(),
                     [&] { overrun_observer_(id_, part, rec); })) {
      callback_errors_.fetch_add(1, std::memory_order_relaxed);
      if (task_metrics_.callback_errors) {
        task_metrics_.callback_errors->increment();
      }
    }
  }
  return abort;
}

void ImpreciseTask::run_one_job(JobId job_index, Nanos release) {
  const auto& params = config_.params;
  const int np = params.num_optional();

  JobRecord rec;
  rec.job = job_index;
  rec.release = release;
  rec.deadline = release + params.effective_deadline();
  rec.optional_deadline = release + placement_.optional_deadline_offset;

  rec.mandatory_start = common::monotonic_now();
  notify_transition(TaskTransition::kReleased, rec.mandatory_start);
  emit(obs::EventKind::kJobRelease, job_index);
  if (task_metrics_.jobs_released) task_metrics_.jobs_released->increment();

  JobContext ctx;
  ctx.job = job_index;
  ctx.release = release;
  ctx.deadline = rec.deadline;
  ctx.optional_deadline = rec.optional_deadline;

  emit(obs::EventKind::kMandatoryBegin, job_index);
  // Budget watchdog checkpoint protocol: arm for the part's budget, run
  // the body, disarm at the checkpoint and apply the overrun ladder.
  const bool watchdog_on = options_.watchdog.enabled && watchdog_.ready();
  if (watchdog_on) {
    watchdog_.arm(rec.mandatory_start +
                  options_.watchdog.budget_for(params.mandatory));
  }
  if (config_.callbacks.mandatory) {
    if (!run_guarded("mandatory", params.name.c_str(),
                     [&] { config_.callbacks.mandatory(ctx); })) {
      callback_errors_.fetch_add(1, std::memory_order_relaxed);
      if (task_metrics_.callback_errors) {
        task_metrics_.callback_errors->increment();
      }
    }
  }
  // Chaos: the body burns past its declared WCET — the violation the
  // watchdog exists to catch (the budget signal interrupts the sleep; the
  // EINTR-safe retry keeps burning, as a looping body would).
  if (fault::try_fire(fault::InjectPoint::kBodyOverrun)) {
    rt::sleep_for(fault::injected_overrun_ns());
  }
  rec.mandatory_end = common::monotonic_now();
  emit(obs::EventKind::kMandatoryEnd, job_index);
  bool abort_job = false;
  if (watchdog_on && watchdog_.disarm()) {
    abort_job = handle_budget_overrun(fault::BudgetPart::kMandatory, rec);
  }

  // Effective parallelism this job may use: the breaker sheds np under
  // sustained overload, and every overrun policy above kLogOnly denies an
  // overrunning job its optional parts.
  int allowed_np = np;
  if (abort_job ||
      (rec.mandatory_overrun &&
       options_.watchdog.policy != fault::OverrunPolicy::kLogOnly)) {
    allowed_np = 0;
  }
  if (breaker_ != nullptr && allowed_np > 0) {
    allowed_np = breaker_->allowed_np(allowed_np);
  }
  rec.optional_shed = np - allowed_np;
  if (rec.optional_shed > 0) {
    emit(obs::EventKind::kOptionalShed, job_index, rec.optional_shed);
    if (task_metrics_.optional_shed) {
      task_metrics_.optional_shed->add(
          static_cast<common::u64>(rec.optional_shed));
    }
  }

  // Optional parts run only when the mandatory part completed by the
  // optional deadline; otherwise they are DISCARDED (Fig. 1).
  const bool mandatory_on_time = rec.mandatory_end < rec.optional_deadline;
  const bool run_optionals = allowed_np > 0 && mandatory_on_time;
  if (run_optionals) {
    rec.optionals_ran = true;
    const auto round = pool_->run_round(ctx, allowed_np);
    notify_transition(TaskTransition::kOptionalsStarted, round.signal_end);
    rec.signal_start = round.signal_start;
    rec.signal_end = round.signal_end;
    rec.first_optional_start = round.first_part_start;
    rec.optional_completed = round.completed;
    rec.optional_terminated = round.terminated;
    if (task_metrics_.optional_completed) {
      task_metrics_.optional_completed->add(
          static_cast<common::u64>(round.completed));
      task_metrics_.optional_terminated->add(
          static_cast<common::u64>(round.terminated));
    }
  } else {
    // Not started at all: discarded when the mandatory part ran past the
    // OD (the paper's path); shed (counted above) when the breaker or the
    // overrun policy withheld them.  The queue mirror sees the same
    // transition either way — the task skips straight to wind-up.
    if (!mandatory_on_time) {
      rec.optional_discarded = np;
      if (task_metrics_.optional_discarded) {
        task_metrics_.optional_discarded->add(static_cast<common::u64>(np));
      }
      emit(obs::EventKind::kOptionalsDiscarded, job_index, np);
    }
    notify_transition(TaskTransition::kOptionalsDiscarded, rec.mandatory_end);
  }

  rec.windup_start = common::monotonic_now();
  notify_transition(TaskTransition::kWindupStarted, rec.windup_start);
  emit(obs::EventKind::kWindupBegin, job_index);
  if (!abort_job && config_.callbacks.windup) {
    if (watchdog_on) {
      watchdog_.arm(rec.windup_start +
                    options_.watchdog.budget_for(params.windup));
    }
    if (!run_guarded("wind-up", params.name.c_str(),
                     [&] { config_.callbacks.windup(ctx); })) {
      callback_errors_.fetch_add(1, std::memory_order_relaxed);
      if (task_metrics_.callback_errors) {
        task_metrics_.callback_errors->increment();
      }
    }
  }
  rec.windup_end = common::monotonic_now();
  emit(obs::EventKind::kWindupEnd, job_index);
  if (!abort_job && watchdog_on && watchdog_.disarm()) {
    // The job is over either way; the ladder's containment here is the
    // counting (and, at the last rung, the demotion).
    (void)handle_budget_overrun(fault::BudgetPart::kWindup, rec);
  }
  rec.deadline_met = rec.windup_end <= rec.deadline;
  if (breaker_ != nullptr) {
    if (auto tr = breaker_->record_job(rec.deadline_met, rec.windup_end)) {
      const obs::EventKind kind =
          tr->to == fault::CircuitBreaker::State::kOpen
              ? obs::EventKind::kBreakerTrip
              : (tr->to == fault::CircuitBreaker::State::kHalfOpen
                     ? obs::EventKind::kBreakerProbe
                     : obs::EventKind::kBreakerRestore);
      emit(kind, job_index, tr->shed_level);
      if (task_metrics_.breaker_transitions) {
        task_metrics_.breaker_transitions->increment();
      }
      if (kind == obs::EventKind::kBreakerTrip) {
        obs::flight_trigger("breaker-trip");
      }
      common::global_logger().warn(
          "%s: breaker %s -> %s (shed level %d, miss rate %.2f)",
          params.name.c_str(), fault::breaker_state_name(tr->from),
          fault::breaker_state_name(tr->to), tr->shed_level,
          breaker_->miss_rate());
    }
    if (task_metrics_.breaker_state) {
      task_metrics_.breaker_state->set(
          static_cast<double>(static_cast<int>(breaker_->state())));
      task_metrics_.breaker_shed_level->set(
          static_cast<double>(breaker_->shed_level()));
    }
  }
  notify_transition(TaskTransition::kJobFinished, rec.windup_end);
  emit(obs::EventKind::kJobFinish, job_index);
  if (task_metrics_.jobs_completed) {
    task_metrics_.jobs_completed->increment();
  }
  if (!rec.deadline_met) {
    // arg carries the lateness in microseconds so the attribution layer
    // can tell whether a single phase (e.g. wake latency) explains the
    // whole miss without needing the task parameters.
    const auto lateness_us = std::min<common::i64>(
        (rec.windup_end - rec.deadline) / 1000,
        std::numeric_limits<common::i32>::max());
    emit(obs::EventKind::kDeadlineMiss, job_index,
         static_cast<common::i32>(lateness_us));
    if (task_metrics_.deadline_misses) {
      task_metrics_.deadline_misses->increment();
    }
  }
  if (!rec.deadline_met && miss_observer_) {
    if (!run_guarded("miss-observer", params.name.c_str(),
                     [&] { miss_observer_(id_, rec); })) {
      callback_errors_.fetch_add(1, std::memory_order_relaxed);
      if (task_metrics_.callback_errors) {
        task_metrics_.callback_errors->increment();
      }
    }
  }
  record_overheads(rec);

  if (!records_.try_push(rec)) {
    records_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<JobRecord> ImpreciseTask::drain_records() {
  std::vector<JobRecord> out;
  while (auto rec = records_.try_pop()) out.push_back(*rec);
  return out;
}

}  // namespace rtseed::core
