#include "shard/transport.hpp"

#include <new>
#include <utility>

#include "common/cacheline.hpp"
#include "obs/metrics.hpp"
#include "rt/futex.hpp"

namespace rtseed::shard {

namespace {

constexpr usize kRingCapacityMax = 1u << 20;
constexpr usize kPoolCapacityMax = 1u << 24;

usize align_line(usize bytes) {
  return (bytes + common::kCacheLine - 1) & ~(common::kCacheLine - 1);
}

usize ring_region_bytes(usize capacity) {
  return align_line(ShardTransport::required_ring_bytes(capacity));
}

/// Byte offsets of every region in the segment — a pure function of the
/// shape, so creator and attacher lay out identically.
struct Layout {
  usize controls = 0;
  usize drops = 0;
  usize pool = 0;
  usize rings = 0;       ///< first ring region; 2 per shard, ingress first
  usize ring_region = 0; ///< stride between consecutive ring regions
  usize total = 0;
};

Layout compute_layout(int num_shards, const TransportOptions& options) {
  Layout layout;
  usize off = sizeof(common::SegmentHeader);
  layout.controls = off;
  off += static_cast<usize>(num_shards) * sizeof(ShardControl);
  layout.drops = off;
  off += common::kCacheLine;  // ingress + egress drop words, one line
  layout.pool = off;
  off += align_line(common::ShmMessagePool<ShardMessage>::required_bytes(
      options.pool_capacity));
  layout.rings = off;
  layout.ring_region = ring_region_bytes(options.ring_capacity);
  off += layout.ring_region * static_cast<usize>(num_shards) * 2;
  layout.total = off;
  return layout;
}

common::Status validate_options(int num_shards,
                                const TransportOptions& options) {
  if (num_shards <= 0) {
    return common::invalid_argument("transport needs at least one shard");
  }
  if (options.pool_capacity == 0 ||
      options.pool_capacity > kPoolCapacityMax) {
    return common::invalid_argument(
        "pool capacity must be in [1, 2^24]");
  }
  const usize cap = options.ring_capacity;
  if (cap < 2 || cap > kRingCapacityMax || (cap & (cap - 1)) != 0) {
    return common::invalid_argument(
        "ring capacity must be a power of two in [2, 2^20]");
  }
  return common::Status::ok();
}

}  // namespace

const char* shard_state_name(ShardState state) {
  switch (state) {
    case ShardState::kDown:
      return "down";
    case ShardState::kStarting:
      return "starting";
    case ShardState::kRecovering:
      return "recovering";
    case ShardState::kRunning:
      return "running";
    case ShardState::kDraining:
      return "draining";
    case ShardState::kExited:
      return "exited";
  }
  return "?";
}

usize ShardTransport::required_ring_bytes(usize capacity) {
  return IndexRing::required_bytes(capacity);
}

usize ShardTransport::required_segment_bytes(int num_shards,
                                             const TransportOptions& options) {
  return compute_layout(num_shards, options).total;
}

common::Expected<std::unique_ptr<ShardTransport>> ShardTransport::create(
    int num_shards, const TransportOptions& options) {
  if (auto st = validate_options(num_shards, options); !st) return st;
  const Layout layout = compute_layout(num_shards, options);
  auto segment =
      common::ShmSegment::create(layout.total, "rtseed-shard-transport");
  if (!segment.has_value()) return segment.status();

  std::unique_ptr<ShardTransport> transport(
      new ShardTransport(num_shards, options));
  if (auto st = transport->map_layout(std::move(*segment), /*format=*/true);
      !st) {
    return st;
  }
  return transport;
}

common::Expected<std::unique_ptr<ShardTransport>> ShardTransport::attach(
    int fd, int num_shards, const TransportOptions& options) {
  if (auto st = validate_options(num_shards, options); !st) return st;
  const Layout layout = compute_layout(num_shards, options);
  auto segment = common::ShmSegment::attach(fd, layout.total);
  if (!segment.has_value()) return segment.status();

  std::unique_ptr<ShardTransport> transport(
      new ShardTransport(num_shards, options));
  if (auto st = transport->map_layout(std::move(*segment), /*format=*/false);
      !st) {
    return st;
  }
  return transport;
}

ShardTransport::ShardTransport(int num_shards, const TransportOptions& options)
    : num_shards_(num_shards), options_(options) {
  ingress_.reserve(static_cast<usize>(num_shards));
  egress_.reserve(static_cast<usize>(num_shards));
}

common::Status ShardTransport::map_layout(common::ShmSegment segment,
                                          bool format) {
  const Layout layout = compute_layout(num_shards_, options_);
  segment_ = std::move(segment);
  auto* base = static_cast<unsigned char*>(segment_.data());

  if (format) {
    common::format_segment_header(base, layout.total, options_.epoch,
                                  kLayoutVersion);
  } else {
    // The page-rounded mapping may exceed the layout; the header records
    // what the creator formatted, which is what we compare against.
    if (auto st = common::validate_segment_header(
            base, layout.total, options_.epoch, kLayoutVersion);
        !st) {
      return st;
    }
  }
  header_ = reinterpret_cast<common::SegmentHeader*>(base);

  controls_ = reinterpret_cast<ShardControl*>(base + layout.controls);
  ingress_drops_ =
      reinterpret_cast<std::atomic<common::u64>*>(base + layout.drops);
  egress_drops_ = ingress_drops_ + 1;
  if (format) {
    for (int s = 0; s < num_shards_; ++s) new (&controls_[s]) ShardControl();
    new (ingress_drops_) std::atomic<common::u64>(0);
    new (egress_drops_) std::atomic<common::u64>(0);
  }

  if (format) {
    pool_ = common::ShmMessagePool<ShardMessage>::create(
        base + layout.pool, options_.pool_capacity);
  } else {
    pool_ = common::ShmMessagePool<ShardMessage>::attach(base + layout.pool);
    if (!pool_.valid()) {
      return common::failed_precondition(
          "transport attach: pool header mismatch");
    }
  }

  ingress_.clear();
  egress_.clear();
  for (int s = 0; s < num_shards_; ++s) {
    unsigned char* in_mem =
        base + layout.rings + layout.ring_region * static_cast<usize>(2 * s);
    unsigned char* out_mem = in_mem + layout.ring_region;
    if (format) {
      ingress_.push_back(IndexRing::create(in_mem, options_.ring_capacity));
      egress_.push_back(IndexRing::create(out_mem, options_.ring_capacity));
    } else {
      ingress_.push_back(IndexRing::attach(in_mem));
      egress_.push_back(IndexRing::attach(out_mem));
      if (!ingress_.back().valid() || !egress_.back().valid()) {
        return common::failed_precondition(
            "transport attach: ring header mismatch at shard " +
            std::to_string(s));
      }
    }
  }

  if (!format) {
    header_->attach_count.fetch_add(1, std::memory_order_relaxed);
  }
  return common::Status::ok();
}

void ShardTransport::wake_ring(IndexRing& ring) {
  rt::wake_word_shared(ring.doorbell_word(), 1);
}

bool ShardTransport::wait_ingress(int shard, Nanos abs_deadline,
                                  int spin_iters) {
  IndexRing& ring = ingress_[static_cast<usize>(shard)];
  if (!ring.empty_approx()) return true;
  for (; spin_iters > 0; --spin_iters) {
    rt::cpu_relax();
    if (!ring.empty_approx()) return true;
  }
  for (;;) {
    const common::u32 epoch = ring.wait_epoch();
    ring.park();
    if (!ring.empty_approx()) {
      ring.unpark();
      return true;
    }
    // EINTR/spurious returns re-check inside; only a real deadline expiry
    // returns false with the word unchanged.
    rt::wait_word_shared_until(ring.doorbell_word(), epoch, abs_deadline);
    ring.unpark();
    if (!ring.empty_approx()) return true;
    if (common::monotonic_now() >= abs_deadline) return false;
  }
}

void ShardTransport::register_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  ingress_drops_metric_ = registry->counter(
      "rtseed_shard_ingress_drops_total",
      "ticks dropped on a full shard ingress ring (producer never blocks)");
  egress_drops_metric_ = registry->counter(
      "rtseed_shard_egress_drops_total",
      "results dropped on a full shard egress ring");
  pool_exhausted_metric_ = registry->counter(
      "rtseed_shard_pool_exhausted_total",
      "transport message-pool exhaustion events (acquire found no cell)");
  sync_metrics();
}

void ShardTransport::sync_metrics() {
  if (ingress_drops_metric_ != nullptr) {
    ingress_drops_metric_->sync_to(ingress_drops());
  }
  if (egress_drops_metric_ != nullptr) {
    egress_drops_metric_->sync_to(egress_drops());
  }
  if (pool_exhausted_metric_ != nullptr) {
    pool_exhausted_metric_->sync_to(pool_exhausted());
  }
}

}  // namespace rtseed::shard
