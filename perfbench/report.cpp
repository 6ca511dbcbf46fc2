// Result bookkeeping, interpolated histogram percentiles and the span log.
#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "common/rng.hpp"

namespace perfbench {

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [key, metric] : metrics) {
    if (key == name) {
      metric = Metric{value, unit};
      return;
    }
  }
  metrics.emplace_back(name, Metric{value, unit});
}

void Result::diag(const std::string& name, double value,
                  const std::string& unit) {
  diagnostics.emplace_back(name, Metric{value, unit});
}

void Result::fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

double interpolated_percentile(const rtseed::obs::HdrHistogram& hist, double q) {
  using rtseed::obs::HdrHistogram;
  const u64 n = hist.count();
  if (n == 0) return 0.0;
  // Rank of the q-th sample, then linear interpolation across the bucket
  // that holds it (buckets are at most ~3% wide).
  const double target = q * static_cast<double>(n);
  double below = 0.0;
  const auto top = hist.highest_bucket();
  for (std::size_t i = 0; i < top; ++i) {
    const auto c = static_cast<double>(hist.bucket(i));
    if (c == 0.0) continue;
    if (below + c >= target) {
      const auto lo = static_cast<double>(HdrHistogram::bucket_lo(i));
      const auto hi = static_cast<double>(HdrHistogram::bucket_hi(i));
      const double v = lo + (target - below) / c * (hi - lo);
      return std::clamp(v, static_cast<double>(hist.min_value()),
                        static_cast<double>(hist.max_value()));
    }
    below += c;
  }
  return static_cast<double>(hist.max_value());
}

Windows::Windows(int count)
    : work_(std::make_unique<std::atomic<u64>[]>(static_cast<std::size_t>(count))),
      samples_(std::make_unique<std::atomic<u64>[]>(static_cast<std::size_t>(count))) {
  for (int i = 0; i < count; ++i) {
    hists_.push_back(std::make_unique<rtseed::obs::HdrHistogram>());
  }
}

std::size_t Windows::index(Nanos offset) const {
  const auto i = static_cast<std::size_t>(offset < 0 ? 0 : offset / kWidth);
  return std::min(i, hists_.size() - 1);
}

void Windows::record(Nanos offset, i64 latency_ns) {
  if (hists_.empty()) return;
  const std::size_t i = index(offset);
  hists_[i]->record(static_cast<u64>(latency_ns < 0 ? 0 : latency_ns));
  samples_[i].fetch_add(1, std::memory_order_relaxed);
}

void Windows::add_work(Nanos offset, u64 amount) {
  if (hists_.empty()) return;
  const std::size_t i = index(offset);
  work_[i].fetch_add(amount, std::memory_order_relaxed);
  samples_[i].fetch_add(1, std::memory_order_relaxed);
}

std::pair<std::size_t, std::size_t> Windows::complete_range() const {
  std::size_t first = hists_.size(), last = 0;
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    if (samples_[i].load(std::memory_order_relaxed) == 0) continue;
    first = std::min(first, i);
    last = i;
  }
  if (first == hists_.size()) return {0, 0};  // no samples (or no windows)
  // Without a complete window, fall back to every window with samples.
  if (last - first < 2) return {first, last + 1};
  return {first + 1, last};
}

int Windows::complete_windows() const {
  const auto [begin, end] = complete_range();
  int count = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (samples_[i].load(std::memory_order_relaxed) > 0) ++count;
  }
  return count;
}

double Windows::p50_us() const {
  std::vector<double> p50s;
  const auto [begin, end] = complete_range();
  for (std::size_t i = begin; i < end; ++i) {
    if (hists_[i]->count() > 0) {
      p50s.push_back(interpolated_percentile(*hists_[i], 0.5) / 1e3);
    }
  }
  return interquartile_mean(std::move(p50s));
}

double Windows::work_per_s() const {
  std::vector<double> rates;
  const auto [begin, end] = complete_range();
  for (std::size_t i = begin; i < end; ++i) {
    if (samples_[i].load(std::memory_order_relaxed) == 0) continue;
    rates.push_back(static_cast<double>(work_[i].load(std::memory_order_relaxed)) *
                    1e9 / static_cast<double>(kWidth));
  }
  return interquartile_mean(std::move(rates));
}

void LatencyHist::report(Result& result, const std::string& name) const {
  result.diag(name + ".n", static_cast<double>(count()), "count");
  result.diag(name + ".p50", percentile_ns(0.5) / 1e3, "us");
  result.diag(name + ".p99", percentile_ns(0.99) / 1e3, "us");
  result.diag(name + ".p999", percentile_ns(0.999) / 1e3, "us");
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double interquartile_mean(std::vector<double> values) {
  if (values.size() < 4) return median(std::move(values));
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

u32 SpanLog::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<u32>(i);
  }
  names_.push_back(name);
  return static_cast<u32>(names_.size() - 1);
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"track\":%u,\"parent\":%lld,\"job\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 names_[s.name].c_str(), s.track,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.job),
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
  }
  return std::fclose(out) == 0;
}

u64 derive_seed(u64 seed, u64 salt) {
  u64 state = seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  return rtseed::common::splitmix64(state);
}

}  // namespace perfbench
