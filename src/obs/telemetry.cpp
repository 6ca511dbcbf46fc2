#include "obs/telemetry.hpp"

#include <algorithm>

#include "common/rt_logger.hpp"
#include "common/time.hpp"
#include "rt/tsc.hpp"

namespace rtseed::obs {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kJobRelease:
      return "release";
    case EventKind::kMandatoryBegin:
      return "mandatory-begin";
    case EventKind::kMandatoryEnd:
      return "mandatory-end";
    case EventKind::kSignalBegin:
      return "signal-begin";
    case EventKind::kSignalEnd:
      return "signal-end";
    case EventKind::kOptionalBegin:
      return "optional-begin";
    case EventKind::kOptionalEnd:
      return "optional-end";
    case EventKind::kOptionalTerminated:
      return "optional-terminated";
    case EventKind::kOptionalsDiscarded:
      return "optionals-discarded";
    case EventKind::kWindupBegin:
      return "windup-begin";
    case EventKind::kWindupEnd:
      return "windup-end";
    case EventKind::kDeadlineMiss:
      return "deadline-miss";
    case EventKind::kJobFinish:
      return "job-finish";
    case EventKind::kRuntimeStart:
      return "runtime-start";
    case EventKind::kRuntimeStop:
      return "runtime-stop";
    case EventKind::kBudgetOverrun:
      return "budget-overrun";
    case EventKind::kBreakerTrip:
      return "breaker-trip";
    case EventKind::kBreakerProbe:
      return "breaker-probe";
    case EventKind::kBreakerRestore:
      return "breaker-restore";
    case EventKind::kOptionalShed:
      return "optional-shed";
    case EventKind::kSupervisorStall:
      return "supervisor-stall";
    case EventKind::kSupervisorKill:
      return "supervisor-kill";
    case EventKind::kSupervisorRespawn:
      return "supervisor-respawn";
    case EventKind::kWakeRetry:
      return "wake-retry";
    case EventKind::kClockAnomaly:
      return "clock-anomaly";
    case EventKind::kWorkloadMark:
      return "workload-mark";
  }
  return "?";
}

bool event_kind_is_begin(EventKind kind) {
  switch (kind) {
    case EventKind::kMandatoryBegin:
    case EventKind::kSignalBegin:
    case EventKind::kOptionalBegin:
    case EventKind::kWindupBegin:
      return true;
    default:
      return false;
  }
}

EventKind event_kind_end_of(EventKind begin) {
  switch (begin) {
    case EventKind::kMandatoryBegin:
      return EventKind::kMandatoryEnd;
    case EventKind::kSignalBegin:
      return EventKind::kSignalEnd;
    case EventKind::kOptionalBegin:
      return EventKind::kOptionalEnd;
    case EventKind::kWindupBegin:
      return EventKind::kWindupEnd;
    default:
      return begin;
  }
}

const char* clock_domain_name(ClockDomain clock) {
  switch (clock) {
    case ClockDomain::kTsc:
      return "tsc";
    case ClockDomain::kMonotonic:
      return "monotonic";
    case ClockDomain::kVirtual:
      return "virtual";
  }
  return "?";
}

common::u64 TelemetrySnapshot::total_events() const {
  common::u64 n = 0;
  for (const auto& t : threads) n += t.events.size();
  return n;
}

common::u64 TelemetrySnapshot::total_dropped() const {
  common::u64 n = 0;
  for (const auto& t : threads) n += t.dropped;
  return n;
}

std::string TelemetrySnapshot::task_name(common::TaskId task) const {
  const auto i = static_cast<common::usize>(task);
  if (task >= 0 && i < task_names.size() && !task_names[i].empty()) {
    return task_names[i];
  }
  return "task" + std::to_string(task);
}

namespace {

common::usize round_up_pow2(common::usize n) {
  common::usize p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

Telemetry::Telemetry(TelemetryOptions options) : options_(options) {
  if (options_.flight.enabled) {
    flight_ = std::make_unique<FlightRecorder>(
        options_.flight, clock_domain_name(options_.clock));
    install_flight_recorder(flight_.get());
  }
  trace_dropped_total_ = metrics_.counter(
      "rtseed_trace_events_dropped_total",
      "Trace events lost because a per-thread ring was full");
  logger_dropped_total_ = metrics_.counter(
      "rtseed_logger_dropped_total",
      "RtLogger records lost because the log ring was full");
}

Telemetry::~Telemetry() {
  // Uninstall only our own recorder: a later Telemetry may have taken the
  // global slot (the injector install pattern — last wins, owner clears).
  if (flight_ != nullptr) {
    FlightRecorder* expected = flight_.get();
    detail::g_flight_recorder.compare_exchange_strong(
        expected, nullptr, std::memory_order_acq_rel);
  }
}

common::u64 Telemetry::now() const {
  switch (options_.clock) {
    case ClockDomain::kTsc:
      return rt::rdtscp_now();
    case ClockDomain::kMonotonic:
      return static_cast<common::u64>(common::monotonic_now());
    case ClockDomain::kVirtual:
      return 0;
  }
  return 0;
}

TraceBuffer* Telemetry::register_thread(std::string name, common::CpuId cpu) {
  std::lock_guard lock(mutex_);
  const auto capacity =
      round_up_pow2(std::max<common::usize>(2, options_.events_per_thread));
  threads_.push_back(
      {std::make_unique<TraceBuffer>(std::move(name), cpu, capacity), {}});
  TraceBuffer* buffer = threads_.back().buffer.get();
  if (flight_ != nullptr) {
    buffer->set_flight_ring(flight_->register_thread(buffer->thread_name()));
  }
  return buffer;
}

void Telemetry::set_task_name(common::TaskId task, std::string name) {
  if (task < 0) return;
  std::lock_guard lock(mutex_);
  const auto i = static_cast<common::usize>(task);
  if (task_names_.size() <= i) task_names_.resize(i + 1);
  task_names_[i] = std::move(name);
}

TaskMetrics Telemetry::register_task_metrics(
    const std::string& task_name, const std::string& termination_strategy) {
  const Labels task_label = {{"task", task_name}};
  TaskMetrics tm;
  tm.jobs_released = metrics_.counter(
      "rtseed_jobs_released_total", "Jobs released (periodic activations)",
      task_label);
  tm.jobs_completed = metrics_.counter(
      "rtseed_jobs_completed_total", "Jobs whose wind-up part completed",
      task_label);
  tm.deadline_misses = metrics_.counter(
      "rtseed_deadline_misses_total",
      "Jobs whose wind-up part completed past the deadline", task_label);
  tm.optional_completed = metrics_.counter(
      "rtseed_optional_completed_total",
      "Optional parts that completed before the optional deadline",
      task_label);
  tm.optional_terminated = metrics_.counter(
      "rtseed_optional_terminated_total",
      "Optional parts terminated at the optional deadline",
      {{"task", task_name}, {"strategy", termination_strategy}});
  tm.optional_discarded = metrics_.counter(
      "rtseed_optional_discarded_total",
      "Optional parts discarded (mandatory part missed the OD)", task_label);
  tm.callback_errors = metrics_.counter(
      "rtseed_callback_errors_total",
      "User-callback exceptions absorbed by the middleware", task_label);
  tm.budget_overruns = metrics_.counter(
      "rtseed_budget_overruns_total",
      "Mandatory/wind-up parts that ran past their WCET budget", task_label);
  tm.jobs_aborted = metrics_.counter(
      "rtseed_jobs_aborted_total",
      "Jobs cut short at a checkpoint by the overrun policy", task_label);
  tm.optional_shed = metrics_.counter(
      "rtseed_optional_shed_total",
      "Optional parts withheld by the overload circuit breaker", task_label);
  tm.breaker_transitions = metrics_.counter(
      "rtseed_breaker_transitions_total",
      "Circuit-breaker state transitions", task_label);
  tm.breaker_state = metrics_.gauge(
      "rtseed_breaker_state",
      "Circuit-breaker state (0 closed, 1 open, 2 half-open)", task_label);
  tm.breaker_shed_level = metrics_.gauge(
      "rtseed_breaker_shed_level",
      "Current shed level (np is shifted right by this)", task_label);
  tm.wake_retries = metrics_.counter(
      "rtseed_wake_retries_total",
      "Wakes re-issued by the lost-wake recovery path", task_label);

  // The four middleware overheads of the paper's evaluation as
  // log-bucketed tail histograms in NANOSECONDS: Δm/Δb/Δs are
  // thread-wakeup-scale, Δe includes timer delivery and can reach
  // milliseconds under load — one bucket geometry covers both regimes
  // with ~3% relative error and exact p50/p99/p99.9/max.
  auto overhead = [&](const char* delta) {
    return metrics_.hdr_histogram(
        "rtseed_overhead_nanoseconds",
        "Middleware overheads (delta-m/b/s/e) per job, nanoseconds",
        {{"task", task_name}, {"delta", delta}});
  };
  tm.delta_m = overhead("m");
  tm.delta_b = overhead("b");
  tm.delta_s = overhead("s");
  tm.delta_e = overhead("e");
  tm.response_time = metrics_.hdr_histogram(
      "rtseed_response_time_nanoseconds",
      "Job response time (release to wind-up end), nanoseconds", task_label);
  return tm;
}

void Telemetry::sync_mirrored_counters_locked() {
  common::u64 dropped = 0;
  for (const auto& slot : threads_) dropped += slot.buffer->dropped();
  trace_dropped_total_->sync_to(dropped);
  logger_dropped_total_->sync_to(common::global_logger().dropped());
}

TelemetrySnapshot Telemetry::snapshot() {
  std::lock_guard lock(mutex_);
  sync_mirrored_counters_locked();
  TelemetrySnapshot snap;
  snap.clock = options_.clock;
  snap.task_names = task_names_;
  snap.threads.reserve(threads_.size());
  for (auto& slot : threads_) {
    auto fresh = slot.buffer->drain();
    slot.collected.insert(slot.collected.end(), fresh.begin(), fresh.end());
    ThreadTrace t;
    t.name = slot.buffer->thread_name();
    t.cpu = slot.buffer->cpu();
    t.dropped = slot.buffer->dropped();
    t.events = slot.collected;
    snap.threads.push_back(std::move(t));
  }
  return snap;
}

}  // namespace rtseed::obs
