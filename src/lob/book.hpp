// Price-time-priority limit order book with two-level bitmap price-level
// indexing (DESIGN.md §13; technique after RichTraders, SNIPPETS.md §1).
//
// Layout (one allocation each, at construction — steady state never
// touches the heap):
//
//   levels_[side]   num_levels cache-line-aligned Level buckets: FIFO
//                   list head/tail into the order table + aggregate qty.
//   groups_[side]   one u64 per 64 consecutive levels; bit k set ⟺
//                   level (group*64 + k) is non-empty.
//   summary_[side]  one bit per GROUP word; finding the best level is
//                   BSR/BSF over ≤⌈levels/4096⌉ summary words, then one
//                   BSR/BSF in the group word — two bit scans, no walk
//                   over empty prices.
//   cells_          the order table: open orders as doubly-linked FIFO
//                   nodes per level, recycled through a free list of
//                   slot indices.  OrderId = {generation, slot} so a
//                   stale handle to a recycled slot resolves to nothing.
//
// Matching: an incoming limit crosses against the opposite side's best
// levels FIFO-within-level, printing at the RESTING order's price, then
// rests any remainder.  Market orders are IOC: unfilled remainder is
// discarded.  Replace keeps time priority only for a same-price qty
// decrease (the RichTraders delta rule); any other amendment is a
// cancel + fresh arrival with a new seq.
//
// Determinism: every accepted order gets a monotonic arrival seq; the
// trade tape and digest() speak seqs, so the std::map ReferenceBook
// (lob/reference_book.hpp) produces bit-identical output for identical
// input — the contract tests/lob/test_fuzz_flow.cpp enforces over
// millions of events.
#pragma once

#include <cassert>

#include "common/arena.hpp"
#include "common/cacheline.hpp"
#include "common/status.hpp"
#include "lob/types.hpp"

namespace rtseed::lob {

struct BookConfig {
  /// Price of level 0; legal prices are [min_tick, min_tick + num_levels).
  PriceTicks min_tick = 1;
  /// Size of the indexed price band.  2^14 levels ≈ 16k ticks of range;
  /// group bitmap 2 KiB/side, summary 4 words/side.
  i32 num_levels = 1 << 14;
  /// Order-table capacity = max simultaneously open orders.
  usize max_orders = 1 << 14;
};

class BitmapBook {
 public:
  struct Stats {
    u64 orders_accepted = 0;   ///< limit arrivals that entered the book/matched
    u64 market_orders = 0;
    u64 trades = 0;
    u64 volume = 0;            ///< total qty traded
    u64 band_rejects = 0;      ///< price outside the indexed band
    u64 capacity_rejects = 0;  ///< order table full (remainder dropped)
    u64 cancels = 0;
    u64 replaces_in_place = 0; ///< qty decrease, priority kept
    u64 replaces_as_new = 0;   ///< price/qty-up, re-queued
  };

  explicit BitmapBook(BookConfig config = {});

  BitmapBook(const BitmapBook&) = delete;
  BitmapBook& operator=(const BitmapBook&) = delete;

  const BookConfig& config() const { return config_; }
  const Stats& stats() const { return stats_; }

  /// Limit order: match while crossing, rest the remainder.  Rejected
  /// outright (no fills) when the price is outside the band or qty <= 0.
  SubmitResult add_limit(Side side, PriceTicks price, Qty qty,
                         TradeSink* tape, u64 cookie = 0);

  /// Market order (IOC): match against the whole opposite side, discard
  /// any remainder.  Never rests, never occupies a table slot.
  SubmitResult add_market(Side side, Qty qty, TradeSink* tape);

  /// Removes an open order's remaining qty.
  AmendResult cancel(OrderId id);

  /// Amends price/qty.  Same-price qty decrease edits in place (priority
  /// and seq kept, *readd reports the same id); anything else cancels and
  /// re-enters as a new arrival (*readd carries the new id/seq/fills).
  AmendResult replace(OrderId id, PriceTicks new_price, Qty new_qty,
                      TradeSink* tape, SubmitResult* readd);
  u64 order_cookie(OrderId id) const;

  // ---- queries -----------------------------------------------------------
  BookTop top() const;
  bool is_open(OrderId id) const { return resolve(id) != kNil; }
  Qty open_qty(OrderId id) const;
  PriceTicks order_price(OrderId id) const;
  u64 order_seq(OrderId id) const;
  usize open_orders() const { return open_orders_; }
  Qty side_qty(Side side) const { return side_qty_[static_cast<int>(side)]; }

  /// Fills `out[0..max)` with the best `max` levels of `side` (best
  /// first); returns how many were written.  O(levels visited).
  int collect_levels(Side side, LevelView* out, int max) const;

  /// Handle of the order at the FRONT of `side`'s best-level FIFO — the
  /// next to fill.  invalid() when the side is empty.  Purely a function
  /// of book content, so a journaled workload that cancels/replaces "the
  /// front order" replays to the same victims after recovery.
  OrderId front_order(Side side) const;

  // ---- snapshot / restore (crash recovery; lob/snapshot.cpp) -------------
  //
  // save_snapshot() serializes the COMPLETE book state — the live prefix
  // of the order table (open cells, free-list links, generations) plus
  // every scalar — and restore_snapshot() rebuilds the level lists and
  // bitmaps from the cell links.  A restored book is bit-identical to the
  // source: same digest, same future slot-allocation order, same seqs.
  // That is the property the journaled shard worker needs — replaying
  // deltas on a restored book reproduces the pre-crash book exactly.
  //
  // The prefix is the slots below high_water(): the free list is LIFO
  // and starts as 0, 1, 2, ..., so every slot at or above the mark has
  // never been handed out and is still pristine (gen 1, next = i + 1).
  // The image is therefore sized by the most orders ever open at once,
  // not by max_orders.

  /// Slots ever handed out: every cell at or above is pristine.
  usize high_water() const { return high_water_; }
  /// Bytes the next save_snapshot() writes (grows with high_water()).
  usize snapshot_bytes() const;
  /// Bytes any save_snapshot() of this config can write (buffer sizing).
  usize max_snapshot_bytes() const;
  /// Serializes into `out` (>= snapshot_bytes()); returns bytes written,
  /// 0 when `cap` is too small.
  usize save_snapshot(void* out, usize cap) const;
  /// Restores from a save_snapshot() image.  The image must come from a
  /// book with an identical BookConfig (checked).
  common::Status restore_snapshot(const void* data, usize bytes);

  /// Canonical content hash: sides, levels best→worst, orders in FIFO
  /// order, (price, seq, open qty).  Two books with equal digests hold
  /// bit-identical state.  Shared contract with ReferenceBook::digest().
  u64 digest() const;

  /// Full structural audit — bitmap↔list consistency, FIFO seq order,
  /// qty conservation, best-level caches, uncrossed top, free-list
  /// accounting, pristine cells above high_water().  Returns true
  /// when every invariant holds; otherwise writes a description of the
  /// first violation into `why` (when non-null).  O(book size): tests
  /// only.
  bool check_invariants(char* why, usize why_len) const;

 private:
  static constexpr u32 kNil = 0xFFFFFFFFu;

  struct OrderCell {
    PriceTicks price = 0;
    Qty open = 0;
    u64 seq = 0;
    u64 cookie = 0;
    u32 prev = kNil;
    u32 next = kNil;  ///< FIFO link when open; free-list link when free
    u32 gen = 1;      ///< bumped on release; never 0 (id.value 0 = invalid)
    u32 side_and_open = 0;  ///< bit 0 side, bit 1 open flag
  };

  struct alignas(common::kCacheLine) Level {
    Qty qty = 0;
    u32 head = kNil;
    u32 tail = kNil;
    u32 count = 0;
  };

  int side_index(Side s) const { return static_cast<int>(s); }
  i32 level_of(PriceTicks price) const {
    const i64 idx = price - config_.min_tick;
    return (idx >= 0 && idx < config_.num_levels) ? static_cast<i32>(idx) : -1;
  }
  PriceTicks price_of(i32 level) const { return config_.min_tick + level; }

  Level* levels(Side s) { return levels_[side_index(s)].get(); }
  const Level* levels(Side s) const { return levels_[side_index(s)].get(); }

  void set_bit(Side s, i32 level);
  void clear_bit(Side s, i32 level);
  /// Highest (bids) / lowest (asks) non-empty level of `s`; -1 if none.
  i32 best_level(Side s) const;
  i32 scan_best(Side s) const;

  u32 acquire_slot();
  void release_slot(u32 slot);
  /// id → open slot index, kNil for stale/dead/invalid handles.
  u32 resolve(OrderId id) const;

  void enqueue(Side side, i32 level, u32 slot);
  void unlink(Side side, i32 level, u32 slot);

  /// Matches `qty` of an incoming `taker_side` order with price limit
  /// `limit_level` (-1 = market) against the opposite side.  Returns qty
  /// filled.
  Qty match(Side taker_side, i32 limit_level, Qty qty, u64 taker_seq,
            TradeSink* tape);

  BookConfig config_;
  common::AlignedArrayPtr<Level> levels_[2];
  std::unique_ptr<u64[]> groups_[2];
  std::unique_ptr<u64[]> summary_[2];
  i32 num_groups_ = 0;
  i32 num_summary_ = 0;
  i32 best_[2] = {-1, -1};  ///< cached best level per side, -1 = empty

  common::AlignedArrayPtr<OrderCell> cells_;
  u32 free_head_ = kNil;
  u32 high_water_ = 0;  ///< slots [high_water_, max_orders) never acquired
  usize open_orders_ = 0;
  Qty side_qty_[2] = {0, 0};
  u64 next_seq_ = 0;
  Stats stats_;
};

/// Digest mixing shared by every book implementation (and the fuzz
/// harness's tape hash): order matters, collisions are astronomically
/// unlikely, and the function is trivially portable.
inline void digest_mix(u64& h, u64 v) {
  u64 s = v + 0x9E3779B97F4A7C15ULL;
  s = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9ULL;
  s = (s ^ (s >> 27)) * 0x94D049BB133111EBULL;
  h = (h ^ (s ^ (s >> 31))) * 0x2545F4914F6CDD1DULL + 0x632BE59BD9B4E019ULL;
}

inline u64 trade_hash(u64 h, const Trade& t) {
  digest_mix(h, t.maker_seq);
  digest_mix(h, t.taker_seq);
  digest_mix(h, t.maker_cookie);
  digest_mix(h, static_cast<u64>(t.price));
  digest_mix(h, static_cast<u64>(t.qty));
  digest_mix(h, static_cast<u64>(t.taker_side));
  return h;
}

}  // namespace rtseed::lob
