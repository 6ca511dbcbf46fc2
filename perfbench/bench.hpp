// Shared vocabulary of the end-to-end benchmark (see perfbench/README.md):
// run options, the result every workload fills in, latency histograms
// with interpolated percentiles, the in-memory span log of traced runs,
// and the host/process probes read from /proc.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "obs/hdr_histogram.hpp"

namespace perfbench {

using rtseed::common::i64;
using rtseed::common::Nanos;
using rtseed::common::u32;
using rtseed::common::u64;

struct Options {
  std::string workload;
  u64 seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< scratch directory inside the checkout
};

/// One named metric value with its unit, in insertion order.
struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;
  /// Free-form diagnostics (sample counts, tails, verification detail),
  /// printed on their own line before the result line.
  std::vector<std::pair<std::string, Metric>> diagnostics;
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit);
  void diag(const std::string& name, double value, const std::string& unit);
  void fail(const std::string& why);
};

/// Interpolated q-th percentile of `hist` (0 when empty): linear inside
/// the bucket holding the q-th sample, so a median carries every digit
/// rather than a bucket midpoint.
double interpolated_percentile(const rtseed::obs::HdrHistogram& hist, double q);

/// HdrHistogram of nanosecond samples with a percentile that interpolates
/// inside the bucket, so medians carry every digit rather than a bucket
/// midpoint.
class LatencyHist {
 public:
  LatencyHist() : hist_(std::make_unique<rtseed::obs::HdrHistogram>()) {}
  void record_ns(i64 ns) { hist_->record(static_cast<u64>(ns < 0 ? 0 : ns)); }
  u64 count() const { return hist_->count(); }
  double percentile_ns(double q) const {
    return interpolated_percentile(*hist_, q);
  }
  double p50_us() const { return percentile_ns(0.5) / 1e3; }
  /// Adds n / p50 / p99 / p99.9 (µs) diagnostics under `name`.
  void report(Result& result, const std::string& name) const;

 private:
  std::unique_ptr<rtseed::obs::HdrHistogram> hist_;
};

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Interquartile mean of `values`: the mean of the middle half once the
/// lowest and highest quarters are dropped (the median for fewer than four
/// values; 0 when empty).  As robust to outliers as the median, but it
/// averages several values, so it is less grainy.
double interquartile_mean(std::vector<double> values);

/// Per-window latency histograms and work counters, windows keyed by the
/// job's release (or the event's due) time since the run's origin.  The
/// run's figure is the median over COMPLETE windows (the first and last
/// window with samples are partial and left out), taken as an
/// interquartile mean, so a burst of host noise confined to a few windows
/// cannot move it.  record()/add_work() are
/// wait-free and may be called from several threads.
class Windows {
 public:
  static constexpr Nanos kWidth = rtseed::common::seconds(1);

  /// Allocates `count` windows; offsets past the last one land in it.
  explicit Windows(int count = 0);
  void record(Nanos offset, i64 latency_ns);
  void add_work(Nanos offset, u64 amount);
  /// Interquartile mean over complete windows of each window's p50
  /// latency, in µs.
  double p50_us() const;
  /// Interquartile mean over complete windows of each window's work per
  /// second.
  double work_per_s() const;
  /// Complete windows the medians are taken over.
  int complete_windows() const;

 private:
  std::size_t index(Nanos offset) const;
  /// [begin, end) of the complete windows.
  std::pair<std::size_t, std::size_t> complete_range() const;

  std::vector<std::unique_ptr<rtseed::obs::HdrHistogram>> hists_;
  std::unique_ptr<std::atomic<u64>[]> work_;
  std::unique_ptr<std::atomic<u64>[]> samples_;
};

/// One bench-side span: name, [start, end) in CLOCK_MONOTONIC ns, the
/// index of the span that caused it (-1 for a root) and the job id that
/// ties one job's spans together.
struct Span {
  u32 name = 0;
  u32 track = 0;
  i64 parent = -1;
  i64 job = 0;
  Nanos start = 0;
  Nanos end = 0;
};

/// Preallocated single-writer span log; spans past capacity are counted
/// and dropped rather than reallocating on the measured path.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }
  u32 intern(const std::string& name);
  i64 add(u32 name, u32 track, i64 parent, i64 job, Nanos start, Nanos end) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{name, track, parent, job, start, end});
    return static_cast<i64>(spans_.size()) - 1;
  }
  u64 dropped() const { return dropped_; }
  /// Writes one JSON object per span (names resolved) to `path`.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  u64 dropped_ = 0;
};

// ---- host and process probes (host.cpp) ------------------------------------

/// Host description plus the noise it showed while the run was measured.
struct HostRecord {
  int nproc = 0;
  std::string cpu_model;
  std::string kernel;
  u64 steal_ticks = 0;        ///< /proc/stat steal accrued during the run
  double spin_gap_pct = 0.0;  ///< wall time a spinning thread lost in gaps
  double spin_gap_max_us = 0.0;
};

/// Static fields plus the steal counter at run start.
HostRecord host_begin();
/// Adds the steal ticks accrued since host_begin() and runs the spin-gap
/// calibration (about 100 ms of spinning).
void host_end(HostRecord& host);

/// Peak resident set (VmHWM) of `pid` (0 = this process) in MiB.
double peak_rss_mib(int pid = 0);
/// User and system CPU seconds of `pid` from /proc/<pid>/stat.
bool proc_cpu_seconds(int pid, double* user_s, double* sys_s);

// ---- workloads ---------------------------------------------------------------

Result run_oms_gateway(const Options& options);
Result run_paper_trading(const Options& options);
Result run_flow_stream(const Options& options);

/// SplitMix64 step over a seed, for deriving per-component seeds.
u64 derive_seed(u64 seed, u64 salt);

}  // namespace perfbench
