#include "obs/metrics.hpp"

namespace rtseed::obs {

const char* metric_type_name(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHdrHistogram:
      return "histogram";
  }
  return "?";
}

void Counter::sync_to(common::u64 v) {
  common::u64 current = value_.load(std::memory_order_relaxed);
  while (current < v && !value_.compare_exchange_weak(
                            current, v, std::memory_order_relaxed)) {
  }
}

void Gauge::add(double delta) {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

MetricsRegistry::Slot* MetricsRegistry::find_locked(const std::string& name,
                                                    const Labels& labels,
                                                    MetricType type) {
  for (auto& slot : slots_) {
    if (slot->entry.type == type && slot->entry.name == name &&
        slot->entry.labels == labels) {
      return slot.get();
    }
  }
  return nullptr;
}

Counter* MetricsRegistry::counter(const std::string& name,
                                  const std::string& help, Labels labels) {
  std::lock_guard lock(mutex_);
  if (auto* slot = find_locked(name, labels, MetricType::kCounter)) {
    return slot->entry.counter;
  }
  auto slot = std::make_unique<Slot>();
  slot->counter = std::make_unique<Counter>();
  slot->entry = {name, help, MetricType::kCounter, std::move(labels),
                 slot->counter.get(), nullptr, nullptr};
  auto* out = slot->entry.counter;
  slots_.push_back(std::move(slot));
  return out;
}

Gauge* MetricsRegistry::gauge(const std::string& name,
                              const std::string& help, Labels labels) {
  std::lock_guard lock(mutex_);
  if (auto* slot = find_locked(name, labels, MetricType::kGauge)) {
    return slot->entry.gauge;
  }
  auto slot = std::make_unique<Slot>();
  slot->gauge = std::make_unique<Gauge>();
  slot->entry = {name, help, MetricType::kGauge, std::move(labels), nullptr,
                 slot->gauge.get(), nullptr};
  auto* out = slot->entry.gauge;
  slots_.push_back(std::move(slot));
  return out;
}

HdrHistogram* MetricsRegistry::hdr_histogram(const std::string& name,
                                             const std::string& help,
                                             Labels labels) {
  std::lock_guard lock(mutex_);
  if (auto* slot = find_locked(name, labels, MetricType::kHdrHistogram)) {
    return slot->entry.hdr;
  }
  auto slot = std::make_unique<Slot>();
  slot->hdr = std::make_unique<HdrHistogram>();
  slot->entry = {name, help, MetricType::kHdrHistogram, std::move(labels),
                 nullptr, nullptr, slot->hdr.get()};
  auto* out = slot->entry.hdr;
  slots_.push_back(std::move(slot));
  return out;
}

std::vector<MetricsRegistry::Entry> MetricsRegistry::entries() const {
  std::lock_guard lock(mutex_);
  std::vector<Entry> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) out.push_back(slot->entry);
  return out;
}

common::usize MetricsRegistry::size() const {
  std::lock_guard lock(mutex_);
  return slots_.size();
}

}  // namespace rtseed::obs
