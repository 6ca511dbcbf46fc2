// BitmapBook snapshot/restore — the state half of journaled crash
// recovery (DESIGN.md §14.3).
//
// The image is the order table's live prefix — the cells below the
// high-water mark of acquired slots — plus every scalar.  Cells at or
// above the mark are pristine (the LIFO free list reaches them only
// after every released slot is in use again), so restore re-initializes
// them instead of reading them.  The level lists and both bitmap tiers
// are NOT serialized either: each open cell already carries its side,
// price, and FIFO links, so restore rebuilds them in one scan of the
// prefix.  The image thus scales with the most orders ever open at once
// (a few KiB for a few hundred) while still restoring bit-identical
// state — including the free-list ORDER, so a restored book hands out
// the same slots, generations, and seqs as the original would have.
// That is what lets a replayed delta stream converge on the exact
// pre-crash digest.
//
// The magic "RTbookS2" marks this format; an image in the full-table
// format ("RTbookSS", no high-water field) fails the magic check.
#include <cstring>
#include <type_traits>

#include "lob/book.hpp"

namespace rtseed::lob {

namespace {

constexpr u32 kSideMask = 1u;
constexpr u32 kOpenBit = 2u;
constexpr u64 kSnapshotMagic = 0x5254626F'6F6B5332ULL;  // "RTbookS2"

struct SnapshotHeader {
  u64 magic = 0;
  // Config echo: an image restored into a differently-shaped book would
  // silently corrupt, so the shape is checked, not trusted.
  i64 min_tick = 0;
  i64 num_levels = 0;
  u64 max_orders = 0;
  u64 high_water = 0;  ///< cells in the image; the rest are pristine
  u64 free_head = 0;
  u64 open_orders = 0;
  i64 side_qty[2] = {0, 0};
  u64 next_seq = 0;
  BitmapBook::Stats stats;
};
static_assert(std::is_trivially_copyable_v<SnapshotHeader>);

}  // namespace

OrderId BitmapBook::front_order(Side side) const {
  const i32 best = best_[side_index(side)];
  if (best < 0) return OrderId::invalid();
  const u32 slot = levels(side)[best].head;
  if (slot == kNil) return OrderId::invalid();
  return OrderId::make(cells_[slot].gen, slot);
}

usize BitmapBook::snapshot_bytes() const {
  return sizeof(SnapshotHeader) + high_water_ * sizeof(OrderCell);
}

usize BitmapBook::max_snapshot_bytes() const {
  return sizeof(SnapshotHeader) + config_.max_orders * sizeof(OrderCell);
}

usize BitmapBook::save_snapshot(void* out, usize cap) const {
  const usize need = snapshot_bytes();
  if (out == nullptr || cap < need) return 0;
  SnapshotHeader header;
  header.magic = kSnapshotMagic;
  header.min_tick = config_.min_tick;
  header.num_levels = config_.num_levels;
  header.max_orders = config_.max_orders;
  header.high_water = high_water_;
  header.free_head = free_head_;
  header.open_orders = open_orders_;
  header.side_qty[0] = side_qty_[0];
  header.side_qty[1] = side_qty_[1];
  header.next_seq = next_seq_;
  header.stats = stats_;
  auto* bytes = static_cast<unsigned char*>(out);
  std::memcpy(bytes, &header, sizeof(header));
  std::memcpy(bytes + sizeof(header), cells_.get(),
              high_water_ * sizeof(OrderCell));
  return need;
}

common::Status BitmapBook::restore_snapshot(const void* data, usize bytes) {
  if (data == nullptr || bytes < sizeof(SnapshotHeader)) {
    return common::invalid_argument("book snapshot: image too small");
  }
  SnapshotHeader header;
  std::memcpy(&header, data, sizeof(header));
  if (header.magic != kSnapshotMagic) {
    return common::failed_precondition("book snapshot: bad magic");
  }
  if (header.min_tick != config_.min_tick ||
      header.num_levels != config_.num_levels ||
      header.max_orders != config_.max_orders) {
    return common::failed_precondition(
        "book snapshot: image shape does not match this book's config");
  }
  if (header.high_water > config_.max_orders) {
    return common::failed_precondition(
        "book snapshot: high-water mark beyond the order table");
  }
  const usize live = static_cast<usize>(header.high_water);
  if (bytes < sizeof(header) + live * sizeof(OrderCell)) {
    return common::invalid_argument("book snapshot: truncated cell table");
  }

  std::memcpy(cells_.get(),
              static_cast<const unsigned char*>(data) + sizeof(header),
              live * sizeof(OrderCell));
  for (usize i = live; i < config_.max_orders; ++i) {
    cells_[i] = OrderCell{};
    cells_[i].next = i + 1 < config_.max_orders ? static_cast<u32>(i + 1) : kNil;
  }
  high_water_ = static_cast<u32>(live);
  free_head_ = static_cast<u32>(header.free_head);
  open_orders_ = static_cast<usize>(header.open_orders);
  side_qty_[0] = header.side_qty[0];
  side_qty_[1] = header.side_qty[1];
  next_seq_ = header.next_seq;
  stats_ = header.stats;

  // Rebuild the derived tiers from the cell table: level FIFO ends come
  // from the links (head has prev == kNil, tail has next == kNil),
  // aggregates and bitmaps from summing the open cells.
  for (int s = 0; s < 2; ++s) {
    for (i32 l = 0; l < config_.num_levels; ++l) levels_[s][l] = Level{};
    std::memset(groups_[s].get(), 0,
                sizeof(u64) * static_cast<usize>(num_groups_));
    std::memset(summary_[s].get(), 0,
                sizeof(u64) * static_cast<usize>(num_summary_));
  }
  for (usize i = 0; i < live; ++i) {
    const OrderCell& cell = cells_[i];
    if ((cell.side_and_open & kOpenBit) == 0) continue;
    const Side side = static_cast<Side>(cell.side_and_open & kSideMask);
    const i32 level = level_of(cell.price);
    if (level < 0) {
      return common::failed_precondition(
          "book snapshot: open cell with out-of-band price");
    }
    Level& bucket = levels(side)[level];
    bucket.qty += cell.open;
    bucket.count += 1;
    if (cell.prev == kNil) bucket.head = static_cast<u32>(i);
    if (cell.next == kNil) bucket.tail = static_cast<u32>(i);
    set_bit(side, level);
  }
  best_[0] = scan_best(Side::kBid);
  best_[1] = scan_best(Side::kAsk);
  return common::Status::ok();
}

}  // namespace rtseed::lob
