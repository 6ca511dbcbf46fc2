#include "core/runtime.hpp"

#include <algorithm>
#include <cstdio>

#include "common/rt_logger.hpp"
#include "fault/injector.hpp"
#include "rt/memory_lock.hpp"

namespace rtseed::core {

namespace {

common::u64 telemetry_clock_thunk(void* ctx) {
  return static_cast<obs::Telemetry*>(ctx)->now();
}

}  // namespace

Runtime::Runtime(RuntimeOptions options) : options_(std::move(options)) {
  if (options_.telemetry.enabled) {
    telemetry_ = std::make_unique<obs::Telemetry>(options_.telemetry);
    control_trace_ = telemetry_->register_thread("runtime");
    // Stamp injector fire records with the event stream's clock so the
    // attribution join (obs/attribution.hpp) shares one time base.
    if (fault::Injector* injector = fault::active_injector()) {
      injector->set_timestamp_source(&telemetry_clock_thunk,
                                     telemetry_.get());
    }
  }
}

Runtime::~Runtime() { stop(); }

common::Status Runtime::admit(TaskConfig config) {
  if (started_) {
    return common::failed_precondition("cannot admit tasks after start()");
  }
  if (config.params.name.empty()) {
    config.params.name = "task" + std::to_string(configs_.size() + 1);
  }
  if (auto st = config.params.validate(); !st) return st;
  configs_.push_back(std::move(config));
  plan_.reset();  // invalidate any previous analysis
  return common::Status::ok();
}

common::Expected<sched::PRmwpPlan> Runtime::analyze() {
  if (configs_.empty()) {
    return common::failed_precondition("no tasks admitted");
  }
  if (plan_) return *plan_;

  sched::TaskSet set;
  for (const auto& config : configs_) set.add(config.params);
  auto plan = sched::plan_p_rmwp(set, options_.topology.num_cores(),
                                 options_.analysis);
  if (!plan.schedulable) {
    return common::failed_precondition("task set not P-RMWP schedulable: " +
                                       plan.diagnostics);
  }
  plan_ = std::make_unique<sched::PRmwpPlan>(std::move(plan));
  return *plan_;
}

common::Status Runtime::start() {
  if (started_) return common::failed_precondition("already started");
  auto plan = analyze();
  if (!plan) return plan.status();

  if (options_.lock_memory) {
    if (auto st = rt::lock_all_memory(); !st) {
      common::global_logger().warn("memory locking unavailable: %s",
                                   st.to_string().c_str());
    }
  }

  for (size_t i = 0; i < configs_.size(); ++i) {
    const auto& task_plan = plan->tasks[i];
    TaskPlacement placement;
    placement.processor = task_plan.processor;
    placement.mandatory_priority = task_plan.mandatory_priority;
    placement.optional_priority = task_plan.optional_priority;
    placement.optional_deadline_offset = task_plan.optional_deadline;
    placement.exclusive_processor =
        std::count_if(plan->tasks.begin(), plan->tasks.end(),
                      [&](const sched::TaskPlan& other) {
                        return other.processor == task_plan.processor;
                      }) == 1;

    TaskRuntimeOptions rt_options;
    rt_options.termination = options_.termination;
    rt_options.policy = options_.policy;
    rt_options.completion_margin = options_.completion_margin;
    rt_options.initial_offset = options_.initial_offset;
    rt_options.wake_backend = options_.wake_backend;
    rt_options.watchdog = options_.watchdog;
    rt_options.breaker = options_.breaker;
    rt_options.repair_signal_mask = options_.repair_signal_mask;

    auto task = std::make_unique<ImpreciseTask>(
        static_cast<common::TaskId>(i), configs_[i], placement, rt_options,
        options_.topology);
    if (options_.mirror_queues) {
      task->set_transition_observer(
          [this](common::TaskId id, TaskTransition tr, Nanos now) {
            on_transition(id, tr, now);
          });
    }
    if (options_.on_deadline_miss) {
      task->set_miss_observer(options_.on_deadline_miss);
    }
    if (options_.on_budget_overrun) {
      task->set_overrun_observer(options_.on_budget_overrun);
    }
    if (telemetry_) task->set_telemetry(telemetry_.get());
    tasks_.push_back(std::move(task));
  }
  if (options_.supervisor.enabled) {
    supervisor_ = std::make_unique<fault::Supervisor>(options_.supervisor);
    for (size_t i = 0; i < tasks_.size(); ++i) {
      supervisor_->watch(tasks_[i]->pool(), static_cast<common::TaskId>(i),
                         configs_[i].params.name);
    }
    if (telemetry_) supervisor_->set_telemetry(telemetry_.get());
  }
  for (auto& task : tasks_) {
    if (auto st = task->start(); !st) {
      stop();
      return st;
    }
  }
  if (supervisor_) {
    if (auto st = supervisor_->start(); !st) {
      common::global_logger().warn("supervisor unavailable: %s",
                                   st.to_string().c_str());
    }
  }
  started_ = true;
  if (telemetry_) {
    telemetry_->metrics()
        .gauge("rtseed_rt_degraded",
               "1 when SCHED_FIFO or affinity was denied (best-effort run)")
        ->set((!rt::rt_capabilities().sched_fifo ||
               !rt::rt_capabilities().affinity)
                  ? 1.0
                  : 0.0);
    control_trace_->emit({telemetry_->now(), common::kInvalidTask, 0, 0,
                          obs::EventKind::kRuntimeStart});
  }
  return common::Status::ok();
}

void Runtime::wait_all_finished() {
  for (auto& task : tasks_) {
    if (task->config().num_jobs > 0) task->wait_finished();
  }
}

void Runtime::stop() {
  if (started_ && control_trace_ != nullptr) {
    control_trace_->emit({telemetry_->now(), common::kInvalidTask, 0, 0,
                          obs::EventKind::kRuntimeStop});
  }
  // Supervisor first: its kill/respawn paths must never race the pools'
  // shutdown joins.
  if (supervisor_) supervisor_->stop();
  for (auto& task : tasks_) task->stop();
}

obs::TelemetrySnapshot Runtime::telemetry_snapshot() {
  if (!telemetry_) return {};
  return telemetry_->snapshot();
}

RuntimeReport Runtime::stop_and_report() {
  RuntimeReport report;
  report.rt_degraded = !rt::rt_capabilities().sched_fifo ||
                       !rt::rt_capabilities().affinity;
  if (supervisor_) {
    supervisor_->stop();
    report.supervisor = supervisor_->stats();
  }
  for (size_t i = 0; i < tasks_.size(); ++i) {
    auto& task = *tasks_[i];
    task.stop();
    TaskReport tr;
    tr.name = configs_[i].params.name;
    if (plan_) tr.plan = plan_->tasks[i];
    tr.records = task.drain_records();
    tr.qos = summarize_qos(tr.records);
    tr.overheads = summarize_overheads(tr.records);
    tr.dropped_records = task.dropped_records();
    tr.budget_overruns = task.budget_overruns();
    tr.wake_retries = task.pool()->wake_retries();
    for (const auto& rec : tr.records) {
      if (rec.aborted) ++tr.jobs_aborted;
    }
    if (const auto* breaker = task.breaker()) {
      tr.breaker_transitions = breaker->transitions();
      tr.jobs_shed = breaker->jobs_shed();
      tr.breaker_shed_level = breaker->shed_level();
    }
    report.tasks.push_back(std::move(tr));
  }
  supervisor_.reset();
  tasks_.clear();
  started_ = false;
  return report;
}

void Runtime::on_transition(common::TaskId task, TaskTransition transition,
                            Nanos now) {
  const auto& plan = plan_->tasks[static_cast<size_t>(task)];
  std::lock_guard lock(queues_mutex_);
  queues_.remove(task);
  switch (transition) {
    case TaskTransition::kReleased:
    case TaskTransition::kWindupStarted:
    case TaskTransition::kOptionalsDiscarded:
      queues_.enqueue(task, plan.mandatory_priority);
      break;
    case TaskTransition::kOptionalsStarted:
      queues_.enqueue(task, plan.optional_priority);
      break;
    case TaskTransition::kJobFinished:
      queues_.sleep_until(
          task, now + configs_[static_cast<size_t>(task)].params.period);
      break;
  }
}

Runtime::QueueSnapshot Runtime::queue_snapshot() const {
  std::lock_guard lock(queues_mutex_);
  QueueSnapshot snap;
  snap.hpq = queues_.size(QueueKind::kHpq);
  snap.rtq = queues_.size(QueueKind::kRtq);
  snap.nrtq = queues_.size(QueueKind::kNrtq);
  snap.sq = queues_.size(QueueKind::kSq);
  return snap;
}

std::string RuntimeReport::to_string() const {
  std::string out;
  char line[256];
  for (const auto& task : tasks) {
    std::snprintf(line, sizeof(line),
                  "%s: proc=%d prio=%d/%d OD=%s  %s\n", task.name.c_str(),
                  task.plan.processor, task.plan.mandatory_priority,
                  task.plan.optional_priority,
                  common::format_duration(task.plan.optional_deadline).c_str(),
                  task.qos.to_string().c_str());
    out += line;
    std::snprintf(line, sizeof(line),
                  "  overheads[us]: dm{%s} db{%s} ds{%s} de{%s}\n",
                  task.overheads.delta_m.to_string().c_str(),
                  task.overheads.delta_b.to_string().c_str(),
                  task.overheads.delta_s.to_string().c_str(),
                  task.overheads.delta_e.to_string().c_str());
    out += line;
    if (task.budget_overruns > 0 || task.jobs_aborted > 0 ||
        task.wake_retries > 0 || task.breaker_transitions > 0 ||
        task.jobs_shed > 0) {
      std::snprintf(line, sizeof(line),
                    "  resilience: overruns=%ld aborted=%ld wake-retries=%ld "
                    "breaker{transitions=%llu shed-jobs=%llu level=%d}\n",
                    task.budget_overruns, task.jobs_aborted, task.wake_retries,
                    static_cast<unsigned long long>(task.breaker_transitions),
                    static_cast<unsigned long long>(task.jobs_shed),
                    task.breaker_shed_level);
      out += line;
    }
  }
  if (supervisor.stalls_detected > 0 || supervisor.forced > 0 ||
      supervisor.killed > 0 || supervisor.respawned > 0) {
    std::snprintf(line, sizeof(line),
                  "supervisor: stalls=%llu forced=%llu killed=%llu "
                  "respawned=%llu\n",
                  static_cast<unsigned long long>(supervisor.stalls_detected),
                  static_cast<unsigned long long>(supervisor.forced),
                  static_cast<unsigned long long>(supervisor.killed),
                  static_cast<unsigned long long>(supervisor.respawned));
    out += line;
  }
  if (rt_degraded) {
    out += "(real-time degraded: SCHED_FIFO or affinity unavailable)\n";
  }
  return out;
}

}  // namespace rtseed::core
