// Lock-free metrics registry: counters, gauges, and log-bucketed latency
// histograms (obs::HdrHistogram).
//
// Registration (naming an instrument) takes a mutex and may allocate, so
// it belongs in setup code — Runtime::start(), pool construction, tests.
// The returned instrument pointers are stable for the registry's lifetime
// and updating through them is wait-free (relaxed atomic arithmetic), so
// the hot path — SCHED_FIFO middleware threads — only ever touches
// atomics.  Reads aggregate on demand: exporters walk the registry and
// load whatever the producers have published so far.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "obs/hdr_histogram.hpp"

namespace rtseed::obs {

/// Prometheus-style key/value labels, e.g. {{"task", "tau1"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHdrHistogram };

/// Prometheus-facing TYPE name (kHdrHistogram renders as "histogram").
const char* metric_type_name(MetricType type);

/// Monotonically increasing count.
class Counter {
 public:
  void add(common::u64 n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void increment() { add(1); }

  /// Mirrors an external monotonic source (e.g. RtLogger::dropped()):
  /// raises the stored value to `v`, never lowers it.
  void sync_to(common::u64 v);

  common::u64 value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<common::u64> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Each getter creates the instrument on first use and returns the same
  /// pointer for the same (name, labels) thereafter.  Counter names should
  /// follow the Prometheus convention and end in `_total`.
  Counter* counter(const std::string& name, const std::string& help,
                   Labels labels = {});
  Gauge* gauge(const std::string& name, const std::string& help,
               Labels labels = {});
  /// Log-bucketed tail-latency histogram (obs::HdrHistogram): no range to
  /// configure; latency-class metrics record nanoseconds.
  HdrHistogram* hdr_histogram(const std::string& name,
                              const std::string& help, Labels labels = {});

  struct Entry {
    std::string name;
    std::string help;
    MetricType type = MetricType::kCounter;
    Labels labels;
    // Exactly one is non-null, matching `type`.
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    HdrHistogram* hdr = nullptr;
  };

  /// Stable snapshot of the registered instruments (the pointers stay
  /// valid; values read through them are live).
  std::vector<Entry> entries() const;

  common::usize size() const;

 private:
  struct Slot {
    Entry entry;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HdrHistogram> hdr;
  };

  Slot* find_locked(const std::string& name, const Labels& labels,
                    MetricType type);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace rtseed::obs
