// Log-bucketed latency histogram with wait-free recording and exact
// p50/p99/p99.9/max — the one histogram type the metrics registry holds.
//
// Bucket layout (HdrHistogram-style log-linear): 32 linear sub-buckets per
// octave, so every recorded value lands in a bucket whose width is at most
// 1/32 (~3.1%) of its magnitude, over the full u64 range — no lo/hi to
// configure, no underflow/overflow to lose.  record() is a handful of
// relaxed atomic RMWs (bucket, count, sum, min/max), so it is safe on
// SCHED_FIFO threads; per-thread instances merge losslessly because equal
// values always map to equal buckets.
//
// The recorded unit is whatever the caller chooses; the middleware's
// latency metrics record NANOSECONDS (the TSC deltas convert before
// recording), so percentile reads need no unit bookkeeping.
#pragma once

#include <atomic>
#include <string>

#include "common/types.hpp"

namespace rtseed::obs {

class HdrHistogram {
 public:
  /// 32 sub-buckets per power of two.
  static constexpr int kSubBucketBits = 5;
  static constexpr common::usize kSubBucketCount = 1u << kSubBucketBits;
  /// Indices 0..63 are exact (width 1); octave t >= 1 contributes 32
  /// buckets of width 2^t.  58 octaves cover the full u64 range.
  static constexpr common::usize kNumBuckets = 60 * kSubBucketCount;

  HdrHistogram() = default;
  HdrHistogram(const HdrHistogram&) = delete;
  HdrHistogram& operator=(const HdrHistogram&) = delete;

  /// Wait-free aside from the min/max CAS (which converges in a bounded
  /// number of steps once the extremes stop moving).
  void record(common::u64 value);
  /// Convenience for double-valued call sites; negatives clamp to 0.
  void record(double value);

  /// Adds every sample of `other` into this histogram (identical bucket
  /// geometry, so the merge is exact).  Safe against concurrent record()
  /// on either side: each bucket transfers atomically.
  void merge(const HdrHistogram& other);

  common::u64 count() const { return count_.load(std::memory_order_relaxed); }
  common::u64 sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  /// Exact extremes (not bucket-quantized); 0 when empty.
  common::u64 min_value() const;
  common::u64 max_value() const;

  /// Percentile estimate, q in [0, 1]: the midpoint of the bucket holding
  /// the q-th sample (≤ ~3.1% relative error); q = 1 returns the exact
  /// max.  Empty histogram: 0.
  common::u64 percentile(double q) const;

  // Bucket geometry (for exporters).  Bucket i counts values in
  // [bucket_lo(i), bucket_hi(i)).
  static common::usize bucket_index(common::u64 value);
  static common::u64 bucket_lo(common::usize index);
  static common::u64 bucket_hi(common::usize index);
  common::u64 bucket(common::usize index) const {
    return counts_[index].load(std::memory_order_relaxed);
  }

  /// Index one past the last non-empty bucket (0 when empty) — exporters
  /// iterate [0, highest_bucket()) instead of all kNumBuckets.
  common::usize highest_bucket() const;

  /// One-line ASCII tail summary: n/mean/p50/p99/p99.9/max.
  std::string tail_summary() const;

 private:
  std::atomic<common::u64> counts_[kNumBuckets] = {};
  std::atomic<common::u64> count_{0};
  std::atomic<common::u64> sum_{0};
  std::atomic<common::u64> min_{~common::u64{0}};
  std::atomic<common::u64> max_{0};
};

}  // namespace rtseed::obs
