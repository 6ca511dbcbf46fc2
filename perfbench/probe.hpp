// JobProbe — times a core::ImpreciseTask from outside by wrapping the
// three TaskCallbacks that a workload's make_task_config() returns.
//
// Untraced, the probe costs one clock read per job (at wind-up return)
// and yields the end-to-end figures: decision latency (release → wind-up
// return) and OD overshoot (optional deadline → wind-up return).  Traced,
// it stamps every callback boundary and tiles each job into spans:
//
//   release ─ core.release_wait ─ trading.mandatory ─ core.fanout ─
//   [optional span: first optional entry → last optional exit] ─
//   core.completion (all parts returned) | core.terminate (OD → wind-up,
//   some part was cut) ─ trading.windup ─ wind-up return
//
// The gaps between callback spans are the core layer's share; the spans
// themselves are the workload's (trading/lob) share.
//
// Jobs are counted by the probe's own wrappers, never by ctx.job: ctx.job
// is the RELEASE index and jumps when a release is skipped.  Optional
// wrappers can be left by siglongjmp, so they stamp entry (and, when the
// body returns, exit) with relaxed atomic stores and the wind-up wrapper
// treats a missing exit stamp as a terminated part.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>

#include "bench.hpp"
#include "core/task_config.hpp"

namespace perfbench {

constexpr int kMaxParts = 8;

/// Latency distributions one or more probes record into (HdrHistogram
/// record() is wait-free, so probes on different threads may share one).
struct ProbeHists {
  LatencyHist decision;       ///< release → wind-up return
  LatencyHist overshoot;      ///< OD → wind-up return (jobs returning past OD)
  /// The same two latencies per 1 s window of release time; sized by
  /// init_windows() before the runtime starts (no windows: not recorded).
  Windows decision_windows;
  Windows overshoot_windows;
  void init_windows(int count) {
    decision_windows = Windows(count);
    overshoot_windows = Windows(count);
  }
  // Traced only.
  LatencyHist release_wait;   ///< Δm: release → mandatory entry
  LatencyHist mandatory;      ///< mandatory callback span
  LatencyHist fanout;         ///< mandatory exit → first optional entry
  LatencyHist optional_skew;  ///< first → last optional entry
  LatencyHist optional_part;  ///< one part: entry → exit (or OD when cut)
  LatencyHist optional_span;  ///< first entry → last exit, or → OD if cut
  LatencyHist completion;     ///< last optional exit → wind-up entry
  LatencyHist terminate;      ///< Δe: OD → wind-up entry (some part cut)
  LatencyHist tail;           ///< optional phase end → wind-up entry (either)
  LatencyHist windup;         ///< wind-up callback span
  LatencyHist core_self;      ///< per job: sum of the core gaps
  LatencyHist trading_self;   ///< per job: sum of the callback spans
};

/// What the wind-up wrapper knows about the job that just finished.
struct JobStamps {
  long job = 0;  ///< probe-counted job index (0-based)
  bool recorded = false;  ///< past the warm-up (histograms took it)
  Nanos offset = 0;       ///< release time since the first job's release
  const rtseed::core::JobContext* ctx = nullptr;
  Nanos mandatory_in = 0, mandatory_out = 0;  ///< traced only
  Nanos windup_in = 0;                        ///< traced only
  Nanos windup_out = 0;
  int entered = 0;   ///< optional parts that started (traced only)
  int returned = 0;  ///< optional parts whose body returned (traced only)
  /// Summed optional part time: entry → exit, or → OD for a part that was
  /// cut (traced only).
  Nanos optional_busy = 0;
};

class JobProbe;

/// Job and part counts summed over the probes of one run.
struct ProbeTotals {
  long jobs = 0;      ///< wind-ups run, warm-up included
  long recorded = 0;  ///< wind-ups past the warm-up
  long skipped = 0;   ///< releases that never ran
  long misses = 0;    ///< wind-ups returning past the deadline
  long entered = 0, returned = 0, discarded = 0;  ///< optional parts
  void add(const JobProbe& probe);
};

/// Sets the core.*, rt.*_per_job, trading.*_us and obs.span_residual_us
/// per-layer metrics shared by every workload that runs jobs.
void report_job_layers(Result& result, const ProbeHists& hists,
                       const ProbeTotals& totals, u64 wakes, u64 sleeps);

class JobProbe {
 public:
  using JobHook = std::function<void(const JobStamps&)>;
  using StartHook = std::function<void()>;

  /// `inner` is the workload's task config; `hists` and `spans` (spans
  /// may be null) must outlive the runtime the wrapped config runs in.
  /// Jobs with index < `warmup_jobs` run but are not recorded.
  JobProbe(rtseed::core::TaskConfig inner, bool traced, long warmup_jobs,
           ProbeHists* hists, SpanLog* spans, u32 track);

  JobProbe(const JobProbe&) = delete;
  JobProbe& operator=(const JobProbe&) = delete;

  /// Runs on the mandatory thread before the first job's mandatory part.
  void on_start(StartHook hook) { start_hook_ = std::move(hook); }
  /// Runs on the mandatory thread after every wind-up, warm-up included.
  void on_job(JobHook hook) { job_hook_ = std::move(hook); }

  /// The task config with the wrapping callbacks installed.
  rtseed::core::TaskConfig wrapped();

  long jobs() const { return jobs_.load(std::memory_order_acquire); }
  long recorded_jobs() const { return recorded_.load(std::memory_order_acquire); }
  long skipped_releases() const { return skipped_.load(std::memory_order_acquire); }
  long deadline_misses() const { return misses_.load(std::memory_order_acquire); }
  /// Parts started / returned / never started, over recorded jobs
  /// (traced only).
  long parts_entered() const { return parts_entered_; }
  long parts_returned() const { return parts_returned_; }
  long parts_discarded() const { return parts_discarded_; }
  /// ctx.release of the first job; 0 until it has been released.
  Nanos first_release() const {
    return first_release_.load(std::memory_order_acquire);
  }

 private:
  void mandatory(const rtseed::core::JobContext& ctx);
  void optional(const rtseed::core::JobContext& ctx, int part,
                rtseed::core::StopToken& token);
  void windup(const rtseed::core::JobContext& ctx);
  void record_traced(JobStamps& stamps);

  rtseed::core::TaskConfig inner_;
  const bool traced_;
  const long warmup_jobs_;
  const int np_;
  ProbeHists* hists_;
  SpanLog* spans_;
  const u32 track_;
  StartHook start_hook_;
  JobHook job_hook_;

  // Mandatory-thread state.
  long job_ = -1;            ///< index of the job in flight
  long last_release_index_ = -1;
  Nanos mandatory_in_ = 0;
  Nanos mandatory_out_ = 0;
  long parts_entered_ = 0;
  long parts_returned_ = 0;
  long parts_discarded_ = 0;

  // Written by optional threads, read by the wind-up wrapper.
  std::array<std::atomic<Nanos>, kMaxParts> entry_{};
  std::array<std::atomic<Nanos>, kMaxParts> exit_{};

  std::atomic<long> jobs_{0};
  std::atomic<long> recorded_{0};
  std::atomic<long> skipped_{0};
  std::atomic<long> misses_{0};
  std::atomic<Nanos> first_release_{0};

  // Span names, interned at construction.
  u32 n_job_ = 0, n_release_wait_ = 0, n_mandatory_ = 0, n_fanout_ = 0,
      n_optional_ = 0, n_completion_ = 0, n_terminate_ = 0, n_windup_ = 0;
};

}  // namespace perfbench
