#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <fstream>

#include "obs/chrome_trace.hpp"

namespace rtseed::obs {

namespace detail {
std::atomic<FlightRecorder*> g_flight_recorder{nullptr};
}  // namespace detail

void install_flight_recorder(FlightRecorder* recorder) {
  detail::g_flight_recorder.store(recorder, std::memory_order_release);
}

std::vector<TraceEvent> FlightRing::recent() const {
  const common::u64 head = head_.load(std::memory_order_relaxed);
  const auto capacity = static_cast<common::u64>(mask_ + 1);
  const common::u64 n = head < capacity ? head : capacity;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<common::usize>(n));
  for (common::u64 i = head - n; i < head; ++i) {
    out.push_back(slots_[static_cast<common::usize>(i) & mask_]);
  }
  return out;
}

namespace {

common::usize round_up_pow2(common::usize n) {
  common::usize p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderOptions options,
                               std::string clock_name)
    : options_(std::move(options)), clock_name_(std::move(clock_name)) {}

FlightRing* FlightRecorder::register_thread(std::string name) {
  std::lock_guard lock(mutex_);
  const auto capacity = round_up_pow2(
      std::max<common::usize>(2, options_.events_per_thread));
  rings_.push_back(
      std::make_unique<FlightRing>(std::move(name), capacity));
  return rings_.back().get();
}

std::string FlightRecorder::render_json(const std::string& reason) const {
  std::string out;
  out += "{\"schema\":\"rtseed-flight-v1\",";
  out += "\"reason\":\"" + json_escape(reason);
  out += "\",\"clock\":\"" + clock_name_ + "\",";
  out += "\"tag\":\"" + json_escape(options_.tag);
  out += "\",\"threads\":[";
  std::lock_guard lock(mutex_);
  bool first_ring = true;
  for (const auto& ring : rings_) {
    if (!first_ring) out += ",";
    first_ring = false;
    out += "{\"name\":\"" + json_escape(ring->name());
    out += "\",\"recorded\":" + std::to_string(ring->recorded());
    out += ",\"events\":[";
    bool first_event = true;
    for (const auto& e : ring->recent()) {
      if (!first_event) out += ",";
      first_event = false;
      out += "{\"t\":" + std::to_string(e.timestamp) +
             ",\"task\":" + std::to_string(e.task) +
             ",\"job\":" + std::to_string(e.job) +
             ",\"arg\":" + std::to_string(e.arg) + ",\"kind\":\"" +
             event_kind_name(e.kind) + "\"}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string FlightRecorder::trigger(const std::string& reason) {
  // Rate limit first: a fault storm triggers once per dump slot, and the
  // increment is what makes concurrent triggers take distinct filenames.
  const int n = dumps_.fetch_add(1, std::memory_order_relaxed);
  if (n >= options_.max_dumps) {
    dumps_.store(options_.max_dumps, std::memory_order_relaxed);
    return "";
  }
  const std::string path = options_.dump_dir + "/flight-" + options_.tag +
                           "-" + reason + "-" + std::to_string(n) + ".json";
  std::ofstream file(path);
  if (!file) return "";
  file << render_json(reason) << "\n";
  return file.good() ? path : "";
}

}  // namespace rtseed::obs
