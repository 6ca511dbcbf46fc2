#include "obs/attribution.hpp"

#include <algorithm>
#include <map>

#include "common/table.hpp"
#include "obs/chrome_trace.hpp"
#include "rt/tsc.hpp"

namespace rtseed::obs {

const char* root_cause_name(RootCause cause) {
  switch (cause) {
    case RootCause::kNone:
      return "none";
    case RootCause::kInjectedFault:
      return "injected-fault";
    case RootCause::kSupervisorKill:
      return "supervisor-kill";
    case RootCause::kShardFailover:
      return "shard-failover";
    case RootCause::kBudgetOverrun:
      return "budget-overrun";
    case RootCause::kCircuitBreakerShed:
      return "breaker-shed";
    case RootCause::kClockAnomaly:
      return "clock-anomaly";
    case RootCause::kMandatoryOverrun:
      return "mandatory-overrun";
    case RootCause::kOptionalOverrun:
      return "optional-overrun";
    case RootCause::kWakeLatency:
      return "wake-latency";
    case RootCause::kPreempted:
      return "preempted";
    case RootCause::kOverload:
      return "overload";
    case RootCause::kUnknown:
      return "unknown";
    case RootCause::kCount:
      break;
  }
  return "?";
}

namespace {

/// Raw clock delta -> nanoseconds for the snapshot's domain.
common::i64 delta_ns(ClockDomain clock, common::u64 later,
                     common::u64 earlier) {
  if (later <= earlier) return 0;
  const common::u64 delta = later - earlier;
  if (clock == ClockDomain::kTsc) {
    return static_cast<common::i64>(rt::cycles_to_nanos(delta));
  }
  return static_cast<common::i64>(delta);
}

/// Everything observed about one (task, job) before phase math runs.
struct JobEvents {
  std::vector<TraceEvent> events;  // time-sorted at processing time
};

struct SliceSums {
  common::i64 total = 0;
  common::u64 first_begin = 0;
  common::u64 last_end = 0;
  bool any = false;
};

SliceSums sum_slices(const std::vector<TraceEvent>& events, ClockDomain clock,
                     EventKind begin_kind) {
  // Begin/end events for one part may land on different threads only for
  // optional parts, which are handled separately; mandatory/signal/windup
  // slices pair in time order.  The simulator emits multiple slice pairs
  // per job when the part is preempted — each pair contributes.
  SliceSums out;
  const EventKind end_kind = event_kind_end_of(begin_kind);
  common::u64 open = 0;
  bool is_open = false;
  for (const auto& e : events) {
    if (e.kind == begin_kind) {
      open = e.timestamp;
      is_open = true;
      if (!out.any) {
        out.first_begin = e.timestamp;
        out.any = true;
      }
    } else if (e.kind == end_kind && is_open) {
      out.total += delta_ns(clock, e.timestamp, open);
      out.last_end = e.timestamp;
      is_open = false;
    }
  }
  return out;
}

common::i64 clamp_nonneg(common::i64 v) { return v < 0 ? 0 : v; }

RootCause classify_miss(const JobTimeline& t) {
  if (!t.complete) return RootCause::kUnknown;
  if (t.injected_fault) return RootCause::kInjectedFault;
  if (t.supervisor_kill) return RootCause::kSupervisorKill;
  if (t.shard_failover) return RootCause::kShardFailover;
  if (t.budget_overrun) return RootCause::kBudgetOverrun;
  if (t.clock_anomaly) return RootCause::kClockAnomaly;
  if (t.optionals_discarded) return RootCause::kMandatoryOverrun;
  if (t.lateness_ns > 0 && t.phases.wake >= t.lateness_ns) {
    return RootCause::kWakeLatency;
  }
  if (t.lateness_ns > 0 && t.phases.preempted >= t.lateness_ns) {
    return RootCause::kPreempted;
  }
  return RootCause::kOverload;
}

RootCause classify_termination(const JobTimeline& t) {
  const bool anything_cut = t.optional_terminated > 0 ||
                            t.optionals_discarded || t.shed_parts > 0 ||
                            t.supervisor_kill;
  if (!anything_cut) return RootCause::kNone;
  if (t.supervisor_kill) return RootCause::kSupervisorKill;
  if (t.shed_parts > 0) return RootCause::kCircuitBreakerShed;
  if (t.optionals_discarded) {
    return t.budget_overrun ? RootCause::kBudgetOverrun
                            : RootCause::kMandatoryOverrun;
  }
  return RootCause::kOptionalOverrun;
}

void append_cause_histogram(std::string& out, const char* key,
                            const std::array<long, kNumRootCauses>& causes) {
  out += std::string("\"") + key + "\":{";
  bool first = true;
  for (int c = 0; c < kNumRootCauses; ++c) {
    if (causes[static_cast<common::usize>(c)] == 0) continue;
    if (!first) out += ",";
    first = false;
    out += std::string("\"") + root_cause_name(static_cast<RootCause>(c)) +
           "\":" + std::to_string(causes[static_cast<common::usize>(c)]);
  }
  out += "}";
}

}  // namespace

AttributionReport attribute_jobs(const TelemetrySnapshot& snapshot,
                                 const AttributionOptions& options) {
  AttributionReport report;
  report.clock = snapshot.clock;
  report.dropped_events = snapshot.total_dropped();

  // 1. Bucket every task-scoped event by (task, job); the ordered map
  //    gives the report its (task, job) ordering for free.
  std::map<std::pair<common::TaskId, common::JobId>, JobEvents> jobs;
  // Supervisor events carry no meaningful job id (the supervisor watches
  // workers, not jobs) — joined to jobs by time window instead.
  std::map<common::TaskId, std::vector<common::u64>> kill_times;
  for (const auto& thread : snapshot.threads) {
    for (const auto& event : thread.events) {
      if (event.task == common::kInvalidTask) continue;
      if (event.kind == EventKind::kSupervisorKill ||
          event.kind == EventKind::kSupervisorStall) {
        if (event.kind == EventKind::kSupervisorKill) {
          kill_times[event.task].push_back(event.timestamp);
        }
        continue;
      }
      jobs[{event.task, event.job}].events.push_back(event);
    }
  }
  for (auto& [task, times] : kill_times) std::sort(times.begin(), times.end());

  // 2. Sort the injector fire log once; each job window binary-searches it.
  std::vector<common::u64> fire_times;
  fire_times.reserve(options.fault_fires.size());
  for (const auto& fire : options.fault_fires) {
    fire_times.push_back(fire.timestamp);
  }
  std::sort(fire_times.begin(), fire_times.end());

  std::map<common::TaskId, TaskAttribution> tasks;

  for (auto& [key, je] : jobs) {
    std::stable_sort(
        je.events.begin(), je.events.end(),
        [](const TraceEvent& a, const TraceEvent& b) {
          return a.timestamp < b.timestamp;
        });

    JobTimeline t;
    t.task = key.first;
    t.job = key.second;

    bool has_release = false, has_finish = false;
    common::u64 first_opt_begin = 0, last_opt_close = 0;
    for (const auto& e : je.events) {
      switch (e.kind) {
        case EventKind::kJobRelease:
          if (!has_release) {
            t.release = e.timestamp;
            has_release = true;
          }
          break;
        case EventKind::kOptionalBegin:
          ++t.optional_started;
          if (first_opt_begin == 0 || e.timestamp < first_opt_begin) {
            first_opt_begin = e.timestamp;
          }
          break;
        case EventKind::kOptionalEnd:
          ++t.optional_completed;
          last_opt_close = std::max(last_opt_close, e.timestamp);
          break;
        case EventKind::kOptionalTerminated:
          ++t.optional_terminated;
          last_opt_close = std::max(last_opt_close, e.timestamp);
          break;
        case EventKind::kOptionalsDiscarded:
          t.optionals_discarded = true;
          break;
        case EventKind::kWindupEnd:
        case EventKind::kJobFinish:
          t.finish = std::max(t.finish, e.timestamp);
          has_finish = true;
          break;
        case EventKind::kDeadlineMiss:
          t.missed = true;
          t.lateness_ns = static_cast<common::i64>(e.arg) * 1000;
          break;
        case EventKind::kBudgetOverrun:
          t.budget_overrun = true;
          break;
        case EventKind::kOptionalShed:
          t.shed_parts += e.arg;
          break;
        case EventKind::kClockAnomaly:
          t.clock_anomaly = true;
          break;
        default:
          break;
      }
    }
    t.complete = has_release && has_finish;

    // Phase decomposition (all slice sums tolerate sim preemption: a part
    // may contribute several begin/end pairs).
    const ClockDomain clock = snapshot.clock;
    const auto mandatory =
        sum_slices(je.events, clock, EventKind::kMandatoryBegin);
    const auto signal = sum_slices(je.events, clock, EventKind::kSignalBegin);
    const auto windup = sum_slices(je.events, clock, EventKind::kWindupBegin);
    t.phases.mandatory = mandatory.total;
    t.phases.handoff = signal.total;
    t.phases.windup = windup.total;
    if (has_release && mandatory.any) {
      t.phases.wake = delta_ns(clock, mandatory.first_begin, t.release);
    }
    if (t.optional_started > 0 && last_opt_close > 0) {
      t.phases.optional = delta_ns(clock, last_opt_close, first_opt_begin);
    }
    // Idle gap before wind-up: after the last optional closed (or, with no
    // optionals, after the mandatory body) the job sleeps until OD.
    if (windup.any) {
      common::u64 pre_windup = last_opt_close;
      if (pre_windup == 0) pre_windup = signal.last_end;
      if (pre_windup == 0) pre_windup = mandatory.last_end;
      if (pre_windup != 0) {
        t.phases.optional_wait =
            delta_ns(clock, windup.first_begin, pre_windup);
      }
    }
    if (t.complete) {
      t.phases.response = delta_ns(clock, t.finish, t.release);
      t.phases.preempted = clamp_nonneg(
          t.phases.response -
          (t.phases.wake + t.phases.mandatory + t.phases.handoff +
           t.phases.optional + t.phases.optional_wait + t.phases.windup));
    }

    // Window joins: supervisor kills and injector fires landing inside
    // [release, finish] belong to this job.
    if (has_release && has_finish) {
      const auto in_window = [&](const std::vector<common::u64>& times) {
        const auto lo =
            std::lower_bound(times.begin(), times.end(), t.release);
        return lo != times.end() && *lo <= t.finish;
      };
      if (!fire_times.empty()) t.injected_fault = in_window(fire_times);
      const auto kills = kill_times.find(t.task);
      if (kills != kill_times.end()) {
        t.supervisor_kill = in_window(kills->second);
      }
      for (const auto& w : options.failover_windows) {
        // Interval overlap; an open window (end == 0) extends forever.
        if (w.begin <= t.finish && (w.end == 0 || w.end >= t.release)) {
          t.shard_failover = true;
          break;
        }
      }
    }

    if (t.missed) t.miss_cause = classify_miss(t);
    t.termination_cause = classify_termination(t);

    auto& ta = tasks[t.task];
    ta.task = t.task;
    ta.name = snapshot.task_name(t.task);
    ++ta.jobs;
    ta.complete_jobs += t.complete;
    if (t.missed) {
      ++ta.misses;
      ++ta.miss_causes[static_cast<common::usize>(t.miss_cause)];
    }
    if (t.termination_cause != RootCause::kNone) {
      ++ta.terminations;
      ++ta.termination_causes[static_cast<common::usize>(t.termination_cause)];
    }

    report.jobs.push_back(std::move(t));
  }

  report.tasks.reserve(tasks.size());
  for (auto& [id, ta] : tasks) report.tasks.push_back(std::move(ta));
  return report;
}

std::string AttributionReport::to_json() const {
  std::string out;
  out += "{\"schema\":\"rtseed-attribution-v1\",";
  out += std::string("\"clock\":\"") + clock_domain_name(clock) + "\",";
  out += "\"dropped_events\":" + std::to_string(dropped_events) + ",";
  out += "\"jobs\":[";
  bool first = true;
  for (const auto& t : jobs) {
    if (!first) out += ",";
    first = false;
    out += "{\"task\":" + std::to_string(t.task) + ",";
    out += "\"job\":" + std::to_string(t.job) + ",";
    out += std::string("\"complete\":") + (t.complete ? "true" : "false") +
           ",";
    out += std::string("\"missed\":") + (t.missed ? "true" : "false") + ",";
    out += "\"lateness_ns\":" + std::to_string(t.lateness_ns) + ",";
    out += std::string("\"miss_cause\":\"") + root_cause_name(t.miss_cause) +
           "\",";
    out += std::string("\"termination_cause\":\"") +
           root_cause_name(t.termination_cause) + "\",";
    out += "\"optional\":{\"started\":" + std::to_string(t.optional_started) +
           ",\"completed\":" + std::to_string(t.optional_completed) +
           ",\"terminated\":" + std::to_string(t.optional_terminated) +
           ",\"discarded\":" + (t.optionals_discarded ? "true" : "false") +
           ",\"shed\":" + std::to_string(t.shed_parts) + "},";
    out += std::string("\"flags\":{\"budget_overrun\":") +
           (t.budget_overrun ? "true" : "false") +
           ",\"supervisor_kill\":" + (t.supervisor_kill ? "true" : "false") +
           ",\"clock_anomaly\":" + (t.clock_anomaly ? "true" : "false") +
           ",\"injected_fault\":" + (t.injected_fault ? "true" : "false") +
           ",\"shard_failover\":" + (t.shard_failover ? "true" : "false") +
           "},";
    const auto& p = t.phases;
    out += "\"phases_ns\":{\"wake\":" + std::to_string(p.wake) +
           ",\"mandatory\":" + std::to_string(p.mandatory) +
           ",\"handoff\":" + std::to_string(p.handoff) +
           ",\"optional\":" + std::to_string(p.optional) +
           ",\"optional_wait\":" + std::to_string(p.optional_wait) +
           ",\"windup\":" + std::to_string(p.windup) +
           ",\"preempted\":" + std::to_string(p.preempted) +
           ",\"response\":" + std::to_string(p.response) + "}}";
  }
  out += "],\"tasks\":[";
  first = true;
  for (const auto& ta : tasks) {
    if (!first) out += ",";
    first = false;
    out += "{\"task\":" + std::to_string(ta.task) + ",";
    out += "\"name\":\"" + json_escape(ta.name) + "\",";
    out += "\"jobs\":" + std::to_string(ta.jobs) + ",";
    out += "\"complete_jobs\":" + std::to_string(ta.complete_jobs) + ",";
    out += "\"misses\":" + std::to_string(ta.misses) + ",";
    out += "\"terminations\":" + std::to_string(ta.terminations) + ",";
    append_cause_histogram(out, "miss_causes", ta.miss_causes);
    out += ",";
    append_cause_histogram(out, "termination_causes", ta.termination_causes);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string AttributionReport::to_ascii() const {
  std::string out;
  common::Table summary(
      {"task", "jobs", "misses", "terminations", "top miss cause",
       "top termination cause"});
  for (const auto& ta : tasks) {
    auto top_of = [](const std::array<long, kNumRootCauses>& causes) {
      int best = 0;
      for (int c = 1; c < kNumRootCauses; ++c) {
        if (causes[static_cast<common::usize>(c)] >
            causes[static_cast<common::usize>(best)]) {
          best = c;
        }
      }
      if (causes[static_cast<common::usize>(best)] == 0) return std::string("-");
      return std::string(root_cause_name(static_cast<RootCause>(best))) +
             " (" +
             std::to_string(causes[static_cast<common::usize>(best)]) + ")";
    };
    summary.add_row({ta.name, std::to_string(ta.jobs),
                     std::to_string(ta.misses),
                     std::to_string(ta.terminations), top_of(ta.miss_causes),
                     top_of(ta.termination_causes)});
  }
  out += summary.render();

  common::Table causes({"task", "cause", "misses", "terminations"});
  for (const auto& ta : tasks) {
    for (int c = 0; c < kNumRootCauses; ++c) {
      const auto i = static_cast<common::usize>(c);
      if (ta.miss_causes[i] == 0 && ta.termination_causes[i] == 0) continue;
      causes.add_row({ta.name, root_cause_name(static_cast<RootCause>(c)),
                      std::to_string(ta.miss_causes[i]),
                      std::to_string(ta.termination_causes[i])});
    }
  }
  if (causes.rows() > 0) {
    out += "\n";
    out += causes.render();
  }
  return out;
}

}  // namespace rtseed::obs
