#include "probe.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {
/// Optional parts get tracks of their own, clear of the mandatory tracks.
constexpr u32 kOptionalTrackBase = 1000;

/// Length of the union of the intervals [begin[k], end[k]) with begin != 0.
Nanos busy_union(const Nanos* begin, const Nanos* end, int n) {
  std::array<std::pair<Nanos, Nanos>, kMaxParts> spans{};
  int count = 0;
  for (int k = 0; k < n; ++k) {
    if (begin[k] != 0) spans[static_cast<std::size_t>(count++)] = {begin[k], end[k]};
  }
  for (int i = 1; i < count; ++i) {  // insertion sort: count <= kMaxParts
    for (int j = i; j > 0 && spans[static_cast<std::size_t>(j)] <
                                 spans[static_cast<std::size_t>(j - 1)];
         --j) {
      std::swap(spans[static_cast<std::size_t>(j)], spans[static_cast<std::size_t>(j - 1)]);
    }
  }
  Nanos total = 0, cursor = 0;
  for (int i = 0; i < count; ++i) {
    const auto [b, e] = spans[static_cast<std::size_t>(i)];
    const Nanos from = std::max(b, cursor);
    if (e > from) total += e - from;
    cursor = std::max(cursor, e);
  }
  return total;
}
}  // namespace

using rtseed::common::monotonic_now;
using rtseed::core::JobContext;
using rtseed::core::StopToken;
using rtseed::core::TaskConfig;

JobProbe::JobProbe(TaskConfig inner, bool traced, long warmup_jobs,
                   ProbeHists* hists, SpanLog* spans, u32 track)
    : inner_(std::move(inner)),
      traced_(traced),
      warmup_jobs_(warmup_jobs),
      np_(inner_.params.num_optional()),
      hists_(hists),
      spans_(spans),
      track_(track) {
  if (np_ > kMaxParts) {
    std::fprintf(stderr, "JobProbe: %d optional parts > %d\n", np_, kMaxParts);
    std::abort();
  }
  if (spans_ != nullptr) {
    n_job_ = spans_->intern("job");
    n_release_wait_ = spans_->intern("core.release_wait");
    n_mandatory_ = spans_->intern("trading.mandatory");
    n_fanout_ = spans_->intern("core.fanout");
    n_optional_ = spans_->intern("trading.optional");
    n_completion_ = spans_->intern("core.completion");
    n_terminate_ = spans_->intern("core.terminate");
    n_windup_ = spans_->intern("trading.windup");
  }
}

TaskConfig JobProbe::wrapped() {
  TaskConfig config;
  config.params = inner_.params;
  config.num_jobs = inner_.num_jobs;
  config.callbacks.mandatory = [this](const JobContext& ctx) { mandatory(ctx); };
  if (traced_) {
    config.callbacks.optional = [this](const JobContext& ctx, int part,
                                       StopToken& token) {
      optional(ctx, part, token);
    };
  } else {
    // Untraced runs leave the optional parts exactly as the workload
    // built them.
    config.callbacks.optional = inner_.callbacks.optional;
  }
  config.callbacks.windup = [this](const JobContext& ctx) { windup(ctx); };
  return config;
}

void JobProbe::mandatory(const JobContext& ctx) {
  if (job_ < 0) {
    first_release_.store(ctx.release, std::memory_order_release);
    if (start_hook_) start_hook_();
  }
  if (last_release_index_ >= 0 && ctx.job > last_release_index_ + 1) {
    skipped_.fetch_add(static_cast<long>(ctx.job - last_release_index_ - 1),
                       std::memory_order_relaxed);
  }
  last_release_index_ = static_cast<long>(ctx.job);
  ++job_;
  if (!traced_) {
    inner_.callbacks.mandatory(ctx);
    return;
  }
  for (int k = 0; k < np_; ++k) {
    entry_[static_cast<std::size_t>(k)].store(0, std::memory_order_relaxed);
    exit_[static_cast<std::size_t>(k)].store(0, std::memory_order_relaxed);
  }
  mandatory_in_ = monotonic_now();
  inner_.callbacks.mandatory(ctx);
  mandatory_out_ = monotonic_now();
}

void JobProbe::optional(const JobContext& ctx, int part, StopToken& token) {
  const auto k = static_cast<std::size_t>(part);
  entry_[k].store(monotonic_now(), std::memory_order_relaxed);
  inner_.callbacks.optional(ctx, part, token);
  // Skipped when the part is cut by siglongjmp: a missing exit stamp is
  // how the wind-up wrapper tells a terminated part from a returned one.
  exit_[k].store(monotonic_now(), std::memory_order_relaxed);
}

void JobProbe::windup(const JobContext& ctx) {
  const Nanos in = traced_ ? monotonic_now() : 0;
  inner_.callbacks.windup(ctx);
  const Nanos out = monotonic_now();
  if (out > ctx.deadline) misses_.fetch_add(1, std::memory_order_relaxed);
  JobStamps stamps;
  stamps.job = job_;
  stamps.recorded = job_ >= warmup_jobs_;
  stamps.ctx = &ctx;
  stamps.windup_in = in;
  stamps.windup_out = out;
  stamps.offset = ctx.release - first_release_.load(std::memory_order_relaxed);
  if (stamps.recorded) {
    hists_->decision.record_ns(out - ctx.release);
    hists_->decision_windows.record(stamps.offset, out - ctx.release);
    if (out > ctx.optional_deadline) {
      hists_->overshoot.record_ns(out - ctx.optional_deadline);
      hists_->overshoot_windows.record(stamps.offset, out - ctx.optional_deadline);
    }
    if (traced_) record_traced(stamps);
  }
  if (job_hook_) job_hook_(stamps);
  if (stamps.recorded) recorded_.fetch_add(1, std::memory_order_release);
  jobs_.fetch_add(1, std::memory_order_release);
}

void JobProbe::record_traced(JobStamps& s) {
  const JobContext& ctx = *s.ctx;
  s.mandatory_in = mandatory_in_;
  s.mandatory_out = mandatory_out_;

  Nanos first_entry = 0, last_entry = 0, last_exit = 0;
  Nanos entries[kMaxParts] = {};
  Nanos ends[kMaxParts] = {};
  for (int k = 0; k < np_; ++k) {
    const auto i = static_cast<std::size_t>(k);
    const Nanos entry = entry_[i].load(std::memory_order_relaxed);
    if (entry == 0) continue;
    const Nanos exit = exit_[i].load(std::memory_order_relaxed);
    ++s.entered;
    if (exit != 0) ++s.returned;
    first_entry = first_entry == 0 ? entry : std::min(first_entry, entry);
    last_entry = std::max(last_entry, entry);
    last_exit = std::max(last_exit, exit);
    entries[k] = entry;
    ends[k] = exit != 0 ? exit : std::max(entry, ctx.optional_deadline);
    s.optional_busy += ends[k] - entries[k];
  }
  parts_entered_ += s.entered;
  parts_returned_ += s.returned;
  parts_discarded_ += np_ - s.entered;

  // Tile release → wind-up return: core gaps and callback spans alternate,
  // so the two per-job sums add up to the decision latency exactly.
  const bool cut = s.entered > s.returned;
  const Nanos optional_end =
      s.entered == 0 ? mandatory_out_ : (cut ? ctx.optional_deadline : last_exit);
  const Nanos optional_begin = s.entered == 0 ? mandatory_out_ : first_entry;
  const Nanos release_wait = mandatory_in_ - ctx.release;
  const Nanos mandatory = mandatory_out_ - mandatory_in_;
  const Nanos fanout = optional_begin - mandatory_out_;
  const Nanos optional_span = optional_end - optional_begin;
  const Nanos tail_gap = s.windup_in - optional_end;
  const Nanos windup = s.windup_out - s.windup_in;

  ProbeHists& h = *hists_;
  h.release_wait.record_ns(release_wait);
  h.mandatory.record_ns(mandatory);
  h.windup.record_ns(windup);
  if (s.entered > 0) {
    h.fanout.record_ns(fanout);
    h.optional_skew.record_ns(last_entry - first_entry);
    for (int k = 0; k < np_; ++k) {
      if (entries[k] != 0) h.optional_part.record_ns(ends[k] - entries[k]);
    }
    h.optional_span.record_ns(optional_span);
  }
  h.tail.record_ns(tail_gap);
  if (cut) {
    h.terminate.record_ns(s.windup_in - ctx.optional_deadline);
  } else if (s.entered > 0) {
    h.completion.record_ns(tail_gap);
  }
  // Inside the optional span, time no part was running (a part still
  // waiting for its wake) is the core's, the rest the workload's.
  const Nanos optional_work = busy_union(entries, ends, np_);
  h.core_self.record_ns(release_wait + fanout + (optional_span - optional_work) +
                        tail_gap);
  h.trading_self.record_ns(mandatory + optional_work + windup);

  if (spans_ == nullptr) return;
  const i64 job = s.job;
  const i64 root = spans_->add(n_job_, track_, -1, job, ctx.release, s.windup_out);
  spans_->add(n_release_wait_, track_, root, job, ctx.release, mandatory_in_);
  spans_->add(n_mandatory_, track_, root, job, mandatory_in_, mandatory_out_);
  if (s.entered > 0) {
    spans_->add(n_fanout_, track_, root, job, mandatory_out_, first_entry);
    for (int k = 0; k < np_; ++k) {
      if (entries[k] != 0) {
        spans_->add(n_optional_, kOptionalTrackBase + track_ * kMaxParts + static_cast<u32>(k),
                    root, job, entries[k], ends[k]);
      }
    }
  }
  spans_->add(cut ? n_terminate_ : n_completion_, track_, root, job,
              optional_end, s.windup_in);
  spans_->add(n_windup_, track_, root, job, s.windup_in, s.windup_out);
}

void ProbeTotals::add(const JobProbe& probe) {
  jobs += probe.jobs();
  recorded += probe.recorded_jobs();
  skipped += probe.skipped_releases();
  misses += probe.deadline_misses();
  entered += probe.parts_entered();
  returned += probe.parts_returned();
  discarded += probe.parts_discarded();
}

void report_job_layers(Result& result, const ProbeHists& h,
                       const ProbeTotals& t, u64 wakes, u64 sleeps) {
  const double jobs = std::max<double>(1.0, static_cast<double>(t.recorded));
  const double all_jobs = std::max<double>(1.0, static_cast<double>(t.jobs));
  result.set("core.release_wait_us", h.release_wait.p50_us(), "us");
  result.set("core.fanout_us", h.fanout.p50_us(), "us");
  result.set("core.optional_skew_us", h.optional_skew.p50_us(), "us");
  result.set("core.completion_us", h.completion.p50_us(), "us");
  result.set("core.terminate_us", h.terminate.p50_us(), "us");
  result.set("core.self_us", h.core_self.p50_us(), "us");
  result.set("core.parts_completed_per_job", static_cast<double>(t.returned) / jobs, "count");
  result.set("core.parts_terminated_per_job",
             static_cast<double>(t.entered - t.returned) / jobs, "count");
  result.set("core.parts_discarded_per_job", static_cast<double>(t.discarded) / jobs,
             "count");
  result.set("core.releases", static_cast<double>(t.jobs + t.skipped), "count");
  result.set("core.skipped_releases", static_cast<double>(t.skipped), "count");
  result.set("core.deadline_misses", static_cast<double>(t.misses), "count");
  result.set("rt.wakes_per_job", static_cast<double>(wakes) / all_jobs, "count");
  result.set("rt.sleeps_per_job", static_cast<double>(sleeps) / all_jobs, "count");
  result.set("trading.mandatory_us", h.mandatory.p50_us(), "us");
  result.set("trading.optional_us", h.optional_part.p50_us(), "us");
  result.set("trading.windup_us", h.windup.p50_us(), "us");
  result.set("trading.self_us", h.trading_self.p50_us(), "us");

  // The spans tile release → wind-up return, but the medians of the
  // parts need not add up to the median of the whole: report by how much
  // they miss it.
  const double parts_us = h.release_wait.p50_us() + h.mandatory.p50_us() +
                          h.fanout.p50_us() + h.optional_span.p50_us() +
                          h.tail.p50_us() + h.windup.p50_us();
  result.set("obs.span_residual_us", h.decision.p50_us() - parts_us, "us");

  h.release_wait.report(result, "core.release_wait");
  h.fanout.report(result, "core.fanout");
  h.optional_span.report(result, "trading.optional_span");
  h.tail.report(result, "core.tail");
  h.mandatory.report(result, "trading.mandatory");
  h.windup.report(result, "trading.windup");
  h.decision.report(result, "traced.decision");
}

}  // namespace perfbench
