// The telemetry hub: owns the per-thread trace buffers, the metrics
// registry, and the naming tables the exporters need.
//
// Life cycle:
//   * construction / thread registration / task registration happen on
//     non-real-time setup paths (Runtime::start(), thread entry before the
//     periodic loop) — they take a mutex and allocate;
//   * emitting events and bumping metrics is wait-free (see TraceBuffer
//     and MetricsRegistry) — that is all the hot path ever does;
//   * snapshot() drains the rings into an accumulated store and returns a
//     copy; the trace exporter (obs/perfetto_export) renders from there,
//     and the metrics exporter (obs/prometheus_export) reads metrics().
//
// When RuntimeOptions::telemetry.enabled is false no Telemetry object
// exists at all: instrumented code guards every emit behind a branch on a
// sticky pointer/flag, so the disabled cost is one predictable untaken
// branch per site — no locks, no allocation.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_buffer.hpp"

namespace rtseed::obs {

/// Time base of the raw event timestamps.
enum class ClockDomain {
  kTsc,        ///< rt::rdtscp_now() ticks (native middleware runs)
  kMonotonic,  ///< CLOCK_MONOTONIC nanoseconds
  kVirtual,    ///< simulated nanoseconds (producers pass timestamps in)
};

const char* clock_domain_name(ClockDomain clock);

struct TelemetryOptions {
  bool enabled = false;
  /// Event-ring capacity per registered thread (power of two).  When a
  /// ring fills between snapshots the overflow is dropped and counted.
  common::usize events_per_thread = 16384;
  ClockDomain clock = ClockDomain::kTsc;
  /// Flight recorder (obs/flight_recorder.hpp): when enabled every
  /// registered thread mirrors its events into a small crash-dump ring.
  FlightRecorderOptions flight;
};

/// Instruments every task registers once at start; pointers are wait-free
/// to update and remain valid for the Telemetry's lifetime.
struct TaskMetrics {
  Counter* jobs_released = nullptr;
  Counter* jobs_completed = nullptr;
  Counter* deadline_misses = nullptr;
  Counter* optional_completed = nullptr;
  Counter* optional_terminated = nullptr;  ///< labelled by strategy
  Counter* optional_discarded = nullptr;
  Counter* callback_errors = nullptr;
  // Resilience instruments (src/fault, DESIGN.md §9).
  Counter* budget_overruns = nullptr;   ///< labelled by part (mandatory/windup)
  Counter* jobs_aborted = nullptr;      ///< jobs cut short by OverrunPolicy
  Counter* optional_shed = nullptr;     ///< optional parts withheld by breaker
  Counter* breaker_transitions = nullptr;
  Gauge* breaker_state = nullptr;       ///< 0 closed, 1 open, 2 half-open
  Gauge* breaker_shed_level = nullptr;
  Counter* wake_retries = nullptr;      ///< lost-wake recovery re-wakes
  // Latency-class metrics are log-bucketed tail histograms recording
  // NANOSECONDS (exact p50/p99/p99.9/max, no lo/hi range to configure).
  HdrHistogram* delta_m = nullptr;  ///< nanoseconds, Fig. 10
  HdrHistogram* delta_b = nullptr;  ///< nanoseconds, Fig. 12
  HdrHistogram* delta_s = nullptr;  ///< nanoseconds, Fig. 11
  HdrHistogram* delta_e = nullptr;  ///< nanoseconds, Fig. 13
  HdrHistogram* response_time = nullptr;  ///< release -> wind-up end, ns
};

struct ThreadTrace {
  std::string name;
  common::CpuId cpu = common::kInvalidCpu;
  common::u64 dropped = 0;
  std::vector<TraceEvent> events;
};

struct TelemetrySnapshot {
  ClockDomain clock = ClockDomain::kTsc;
  std::vector<ThreadTrace> threads;
  std::vector<std::string> task_names;  ///< indexed by TaskId ("" = unknown)

  common::u64 total_events() const;
  common::u64 total_dropped() const;
  std::string task_name(common::TaskId task) const;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions options);
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  bool enabled() const { return options_.enabled; }
  ClockDomain clock() const { return options_.clock; }

  /// Reads the configured clock (kVirtual returns 0: simulated producers
  /// stamp events themselves).
  common::u64 now() const;

  /// Registers the calling thread's event ring.  Call once per thread on
  /// its setup path (takes a mutex, allocates).  The buffer stays valid
  /// for the Telemetry's lifetime.
  TraceBuffer* register_thread(std::string name,
                               common::CpuId cpu = common::kInvalidCpu);

  /// Task name table for the exporters.
  void set_task_name(common::TaskId task, std::string name);

  /// Registers the per-task instrument bundle (idempotent per task name).
  TaskMetrics register_task_metrics(const std::string& task_name,
                                    const std::string& termination_strategy);

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// The flight recorder, or nullptr when options.flight.enabled is off.
  /// Owned here and installed process-wide for the fault hooks
  /// (obs::flight_trigger) for the Telemetry's lifetime.
  FlightRecorder* flight_recorder() { return flight_.get(); }

  /// Drains all rings into the accumulated store, refreshes the mirrored
  /// counters (trace drops, logger drops), and returns a copy of
  /// everything collected since construction.
  TelemetrySnapshot snapshot();

 private:
  void sync_mirrored_counters_locked();

  const TelemetryOptions options_;
  MetricsRegistry metrics_;
  std::unique_ptr<FlightRecorder> flight_;
  Counter* trace_dropped_total_;
  Counter* logger_dropped_total_;

  mutable std::mutex mutex_;
  struct ThreadSlot {
    std::unique_ptr<TraceBuffer> buffer;
    std::vector<TraceEvent> collected;  ///< drained by earlier snapshots
  };
  std::vector<ThreadSlot> threads_;
  std::vector<std::string> task_names_;
};

}  // namespace rtseed::obs
