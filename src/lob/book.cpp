#include "lob/book.hpp"

#include <cstdio>
#include <cstring>

namespace rtseed::lob {

namespace {

constexpr u32 kSideMask = 1u;
constexpr u32 kOpenBit = 2u;

inline int bsr64(u64 w) {
  assert(w != 0);
  return 63 - __builtin_clzll(w);
}
inline int bsf64(u64 w) {
  assert(w != 0);
  return __builtin_ctzll(w);
}

/// Bits of `w` strictly above / strictly below position `pos`.
inline u64 bits_above(u64 w, int pos) {
  return pos >= 63 ? 0 : (w & ~((2ULL << pos) - 1));
}
inline u64 bits_below(u64 w, int pos) {
  return pos <= 0 ? 0 : (w & ((1ULL << pos) - 1));
}

}  // namespace

BitmapBook::BitmapBook(BookConfig config) : config_(config) {
  assert(config_.num_levels > 0 && config_.max_orders > 0);
  num_groups_ = (config_.num_levels + 63) / 64;
  num_summary_ = (num_groups_ + 63) / 64;
  for (int s = 0; s < 2; ++s) {
    levels_[s] =
        common::make_aligned_array<Level>(static_cast<usize>(config_.num_levels));
    groups_[s] = std::make_unique<u64[]>(static_cast<usize>(num_groups_));
    summary_[s] = std::make_unique<u64[]>(static_cast<usize>(num_summary_));
    std::memset(groups_[s].get(), 0, sizeof(u64) * static_cast<usize>(num_groups_));
    std::memset(summary_[s].get(), 0,
                sizeof(u64) * static_cast<usize>(num_summary_));
  }
  cells_ = common::make_aligned_array<OrderCell>(config_.max_orders);
  for (usize i = 0; i + 1 < config_.max_orders; ++i) {
    cells_[i].next = static_cast<u32>(i + 1);
  }
  cells_[config_.max_orders - 1].next = kNil;
  free_head_ = 0;
}

void BitmapBook::set_bit(Side s, i32 level) {
  const int side = side_index(s);
  groups_[side][level >> 6] |= 1ULL << (level & 63);
  summary_[side][(level >> 6) >> 6] |= 1ULL << ((level >> 6) & 63);
}

void BitmapBook::clear_bit(Side s, i32 level) {
  const int side = side_index(s);
  u64& g = groups_[side][level >> 6];
  g &= ~(1ULL << (level & 63));
  if (g == 0) {
    summary_[side][(level >> 6) >> 6] &= ~(1ULL << ((level >> 6) & 63));
  }
}

i32 BitmapBook::best_level(Side s) const { return best_[side_index(s)]; }

i32 BitmapBook::scan_best(Side s) const {
  const int side = side_index(s);
  if (s == Side::kBid) {
    // Best bid = HIGHEST non-empty level: BSR over summary, BSR in group.
    for (i32 w = num_summary_ - 1; w >= 0; --w) {
      const u64 sw = summary_[side][w];
      if (sw == 0) continue;
      const i32 g = w * 64 + bsr64(sw);
      return g * 64 + bsr64(groups_[side][g]);
    }
  } else {
    // Best ask = LOWEST non-empty level: BSF twice.
    for (i32 w = 0; w < num_summary_; ++w) {
      const u64 sw = summary_[side][w];
      if (sw == 0) continue;
      const i32 g = w * 64 + bsf64(sw);
      return g * 64 + bsf64(groups_[side][g]);
    }
  }
  return -1;
}

u32 BitmapBook::acquire_slot() {
  if (free_head_ == kNil) return kNil;
  const u32 slot = free_head_;
  free_head_ = cells_[slot].next;
  // Released slots sit ahead of the pristine tail on the LIFO free list,
  // so the tail is only reached when they are all in use again.
  if (slot >= high_water_) high_water_ = slot + 1;
  ++open_orders_;
  return slot;
}

void BitmapBook::release_slot(u32 slot) {
  OrderCell& c = cells_[slot];
  c.side_and_open &= ~kOpenBit;
  if (++c.gen == 0) c.gen = 1;  // never hand out id.value == 0
  c.next = free_head_;
  c.prev = kNil;
  free_head_ = slot;
  --open_orders_;
}

u32 BitmapBook::resolve(OrderId id) const {
  const u32 slot = id.slot();
  if (!id.valid() || slot >= config_.max_orders) return kNil;
  const OrderCell& c = cells_[slot];
  if (c.gen != id.generation() || (c.side_and_open & kOpenBit) == 0) {
    return kNil;
  }
  return slot;
}

void BitmapBook::enqueue(Side side, i32 level, u32 slot) {
  Level& lvl = levels(side)[level];
  OrderCell& c = cells_[slot];
  c.prev = lvl.tail;
  c.next = kNil;
  if (lvl.tail != kNil) {
    cells_[lvl.tail].next = slot;
  } else {
    lvl.head = slot;
  }
  lvl.tail = slot;
  ++lvl.count;
}

void BitmapBook::unlink(Side side, i32 level, u32 slot) {
  Level& lvl = levels(side)[level];
  OrderCell& c = cells_[slot];
  if (c.prev != kNil) {
    cells_[c.prev].next = c.next;
  } else {
    lvl.head = c.next;
  }
  if (c.next != kNil) {
    cells_[c.next].prev = c.prev;
  } else {
    lvl.tail = c.prev;
  }
  --lvl.count;
}

Qty BitmapBook::match(Side taker_side, i32 limit_level, Qty qty, u64 taker_seq,
                      TradeSink* tape) {
  const Side maker_side = other_side(taker_side);
  const int maker = side_index(maker_side);
  Qty filled = 0;
  while (qty > 0) {
    const i32 best = best_[maker];
    if (best < 0) break;
    if (limit_level >= 0) {
      if (taker_side == Side::kBid && best > limit_level) break;
      if (taker_side == Side::kAsk && best < limit_level) break;
    }
    Level& lvl = levels(maker_side)[best];
    while (qty > 0 && lvl.head != kNil) {
      const u32 slot = lvl.head;
      OrderCell& mk = cells_[slot];
      const Qty take = mk.open < qty ? mk.open : qty;
      mk.open -= take;
      lvl.qty -= take;
      side_qty_[maker] -= take;
      qty -= take;
      filled += take;
      ++stats_.trades;
      stats_.volume += static_cast<u64>(take);
      if (tape != nullptr) {
        tape->on_trade(Trade{mk.seq, taker_seq, mk.cookie, price_of(best),
                             take, taker_side});
      }
      if (mk.open == 0) {
        unlink(maker_side, best, slot);
        release_slot(slot);
      }
    }
    if (lvl.count == 0) {
      clear_bit(maker_side, best);
      best_[maker] = scan_best(maker_side);
    }
  }
  return filled;
}

SubmitResult BitmapBook::add_limit(Side side, PriceTicks price, Qty qty,
                                   TradeSink* tape, u64 cookie) {
  SubmitResult r;
  const i32 level = level_of(price);
  if (level < 0 || qty <= 0) {
    ++stats_.band_rejects;
    return r;
  }
  const u64 seq = ++next_seq_;
  r.seq = seq;
  r.accepted = true;
  ++stats_.orders_accepted;
  r.filled = match(side, level, qty, seq, tape);
  const Qty rest = qty - r.filled;
  if (rest > 0) {
    const u32 slot = acquire_slot();
    if (slot == kNil) {
      // Table full: the unfilled remainder is dropped and counted (the
      // reference book enforces the same cap, so streams stay aligned).
      ++stats_.capacity_rejects;
      return r;
    }
    OrderCell& c = cells_[slot];
    c.price = price;
    c.open = rest;
    c.seq = seq;
    c.cookie = cookie;
    c.side_and_open = static_cast<u32>(side) | kOpenBit;
    enqueue(side, level, slot);
    Level& lvl = levels(side)[level];
    lvl.qty += rest;
    side_qty_[side_index(side)] += rest;
    set_bit(side, level);
    i32& best = best_[side_index(side)];
    if (best < 0 || (side == Side::kBid ? level > best : level < best)) {
      best = level;
    }
    r.id = OrderId::make(c.gen, slot);
    r.remaining = rest;
  }
  return r;
}

SubmitResult BitmapBook::add_market(Side side, Qty qty, TradeSink* tape) {
  SubmitResult r;
  if (qty <= 0) {
    ++stats_.band_rejects;
    return r;
  }
  const u64 seq = ++next_seq_;
  r.seq = seq;
  r.accepted = true;
  ++stats_.market_orders;
  r.filled = match(side, -1, qty, seq, tape);
  return r;  // IOC: remainder discarded, nothing rests
}

AmendResult BitmapBook::cancel(OrderId id) {
  const u32 slot = resolve(id);
  if (slot == kNil) return AmendResult::kUnknownOrder;
  const OrderCell& c = cells_[slot];
  const Side side = static_cast<Side>(c.side_and_open & kSideMask);
  const i32 level = level_of(c.price);
  Level& lvl = levels(side)[level];
  lvl.qty -= c.open;
  side_qty_[side_index(side)] -= c.open;
  unlink(side, level, slot);
  release_slot(slot);
  if (lvl.count == 0) {
    clear_bit(side, level);
    best_[side_index(side)] = scan_best(side);
  }
  ++stats_.cancels;
  return AmendResult::kOk;
}

AmendResult BitmapBook::replace(OrderId id, PriceTicks new_price, Qty new_qty,
                                TradeSink* tape, SubmitResult* readd) {
  const u32 slot = resolve(id);
  if (slot == kNil) return AmendResult::kUnknownOrder;
  OrderCell& c = cells_[slot];
  if (new_qty <= 0 || level_of(new_price) < 0) return AmendResult::kRejected;
  if (new_price == c.price && new_qty == c.open) return AmendResult::kNoChange;

  const Side side = static_cast<Side>(c.side_and_open & kSideMask);
  if (new_price == c.price && new_qty < c.open) {
    // Same-price qty decrease: edit in place, priority and seq kept
    // (the RichTraders delta rule — a shrink never queue-jumps anyone).
    const Qty delta = c.open - new_qty;
    c.open = new_qty;
    levels(side)[level_of(c.price)].qty -= delta;
    side_qty_[side_index(side)] -= delta;
    ++stats_.replaces_in_place;
    if (readd != nullptr) {
      *readd = SubmitResult{id, c.seq, 0, new_qty, true};
    }
    return AmendResult::kOk;
  }

  // Price change or qty increase: lose time priority — cancel and
  // re-enter as a fresh arrival (new seq, may cross immediately).
  const u64 cookie = c.cookie;
  const i32 level = level_of(c.price);
  Level& lvl = levels(side)[level];
  lvl.qty -= c.open;
  side_qty_[side_index(side)] -= c.open;
  unlink(side, level, slot);
  release_slot(slot);
  if (lvl.count == 0) {
    clear_bit(side, level);
    best_[side_index(side)] = scan_best(side);
  }
  ++stats_.replaces_as_new;
  const SubmitResult fresh = add_limit(side, new_price, new_qty, tape, cookie);
  if (readd != nullptr) *readd = fresh;
  return AmendResult::kOk;
}

BookTop BitmapBook::top() const {
  BookTop t;
  const i32 bid = best_[side_index(Side::kBid)];
  if (bid >= 0) {
    t.bid_price = price_of(bid);
    t.bid_qty = levels(Side::kBid)[bid].qty;
  }
  const i32 ask = best_[side_index(Side::kAsk)];
  if (ask >= 0) {
    t.ask_price = price_of(ask);
    t.ask_qty = levels(Side::kAsk)[ask].qty;
  }
  return t;
}

Qty BitmapBook::open_qty(OrderId id) const {
  const u32 slot = resolve(id);
  return slot == kNil ? 0 : cells_[slot].open;
}

PriceTicks BitmapBook::order_price(OrderId id) const {
  const u32 slot = resolve(id);
  return slot == kNil ? 0 : cells_[slot].price;
}

u64 BitmapBook::order_seq(OrderId id) const {
  const u32 slot = resolve(id);
  return slot == kNil ? 0 : cells_[slot].seq;
}

u64 BitmapBook::order_cookie(OrderId id) const {
  const u32 slot = resolve(id);
  return slot == kNil ? 0 : cells_[slot].cookie;
}

namespace {
/// Next non-empty level strictly worse than `from` (lower for bids,
/// higher for asks); -1 when none.  Group-word walk; the summary is not
/// consulted because depth queries stay near the best levels.
i32 next_worse_level(const u64* groups, i32 num_groups, Side s, i32 from) {
  i32 g = from >> 6;
  if (s == Side::kBid) {
    u64 w = bits_below(groups[g], from & 63);
    for (;;) {
      if (w != 0) return g * 64 + bsr64(w);
      if (--g < 0) return -1;
      w = groups[g];
    }
  }
  u64 w = bits_above(groups[g], from & 63);
  for (;;) {
    if (w != 0) return g * 64 + bsf64(w);
    if (++g >= num_groups) return -1;
    w = groups[g];
  }
}
}  // namespace

int BitmapBook::collect_levels(Side side, LevelView* out, int max) const {
  const u64* groups = groups_[side_index(side)].get();
  int n = 0;
  i32 lvl = best_[side_index(side)];
  while (lvl >= 0 && n < max) {
    const Level& L = levels(side)[lvl];
    out[n++] = LevelView{price_of(lvl), L.qty, L.count};
    lvl = next_worse_level(groups, num_groups_, side, lvl);
  }
  return n;
}

u64 BitmapBook::digest() const {
  u64 h = 0;
  for (const Side side : {Side::kBid, Side::kAsk}) {
    digest_mix(h, 0xABCD0000ULL + static_cast<u64>(side));
    const u64* groups = groups_[side_index(side)].get();
    i32 lvl = best_[side_index(side)];
    while (lvl >= 0) {
      const Level& L = levels(side)[lvl];
      digest_mix(h, static_cast<u64>(price_of(lvl)));
      digest_mix(h, static_cast<u64>(L.qty));
      digest_mix(h, L.count);
      for (u32 s = L.head; s != kNil; s = cells_[s].next) {
        digest_mix(h, cells_[s].seq);
        digest_mix(h, static_cast<u64>(cells_[s].open));
      }
      lvl = next_worse_level(groups, num_groups_, side, lvl);
    }
  }
  return h;
}

bool BitmapBook::check_invariants(char* why, usize why_len) const {
  const auto fail = [&](const char* fmt, auto... args) {
    if (why != nullptr && why_len > 0) {
      std::snprintf(why, why_len, fmt, args...);
    }
    return false;
  };

  usize total_orders = 0;
  for (const Side side : {Side::kBid, Side::kAsk}) {
    const int s = side_index(side);
    Qty side_total = 0;
    for (i32 lvl = 0; lvl < config_.num_levels; ++lvl) {
      const Level& L = levels(side)[lvl];
      const bool bit =
          (groups_[s][lvl >> 6] >> (lvl & 63)) & 1ULL;
      if (bit != (L.count > 0)) {
        return fail("%s level %ld: bit=%d count=%u (bitmap/list mismatch)",
                    side_name(side), static_cast<long>(price_of(lvl)),
                    bit ? 1 : 0, L.count);
      }
      Qty level_qty = 0;
      u32 n = 0;
      u64 last_seq = 0;
      u32 prev = kNil;
      for (u32 c = L.head; c != kNil; c = cells_[c].next) {
        if (++n > L.count) {
          return fail("%s level %ld: list longer than count %u",
                      side_name(side), static_cast<long>(price_of(lvl)),
                      L.count);
        }
        const OrderCell& cell = cells_[c];
        if ((cell.side_and_open & kOpenBit) == 0) {
          return fail("%s level %ld: closed cell %u on list",
                      side_name(side), static_cast<long>(price_of(lvl)), c);
        }
        if (static_cast<Side>(cell.side_and_open & kSideMask) != side) {
          return fail("cell %u on wrong side list", c);
        }
        if (cell.price != price_of(lvl)) {
          return fail("cell %u price %ld on level %ld", c,
                      static_cast<long>(cell.price),
                      static_cast<long>(price_of(lvl)));
        }
        if (cell.open <= 0) {
          return fail("cell %u open qty %ld <= 0", c,
                      static_cast<long>(cell.open));
        }
        if (cell.seq <= last_seq) {
          return fail("%s level %ld: FIFO violated (seq %llu after %llu)",
                      side_name(side), static_cast<long>(price_of(lvl)),
                      static_cast<unsigned long long>(cell.seq),
                      static_cast<unsigned long long>(last_seq));
        }
        if (cell.prev != prev) {
          return fail("cell %u prev link broken", c);
        }
        last_seq = cell.seq;
        prev = c;
        level_qty += cell.open;
      }
      if (prev != L.tail) {
        return fail("%s level %ld: tail link broken", side_name(side),
                    static_cast<long>(price_of(lvl)));
      }
      if (n != L.count) {
        return fail("%s level %ld: count %u but %u on list", side_name(side),
                    static_cast<long>(price_of(lvl)), L.count, n);
      }
      if (level_qty != L.qty) {
        return fail("%s level %ld: qty %ld but members sum %ld",
                    side_name(side), static_cast<long>(price_of(lvl)),
                    static_cast<long>(L.qty), static_cast<long>(level_qty));
      }
      side_total += L.qty;
      total_orders += n;
    }
    for (i32 g = 0; g < num_groups_; ++g) {
      const bool sbit = (summary_[s][g >> 6] >> (g & 63)) & 1ULL;
      if (sbit != (groups_[s][g] != 0)) {
        return fail("%s summary bit %d inconsistent", side_name(side), g);
      }
    }
    if (best_[s] != scan_best(side)) {
      return fail("%s best cache %d != scan %d", side_name(side), best_[s],
                  scan_best(side));
    }
    if (side_total != side_qty_[s]) {
      return fail("%s qty total %ld != tracked %ld", side_name(side),
                  static_cast<long>(side_total),
                  static_cast<long>(side_qty_[s]));
    }
  }
  if (total_orders != open_orders_) {
    return fail("open order count %zu != tracked %zu", total_orders,
                open_orders_);
  }

  // Uncrossed after matching: best bid strictly below best ask.
  const i32 bb = best_[side_index(Side::kBid)];
  const i32 ba = best_[side_index(Side::kAsk)];
  if (bb >= 0 && ba >= 0 && bb >= ba) {
    return fail("book crossed: best bid %ld >= best ask %ld",
                static_cast<long>(price_of(bb)),
                static_cast<long>(price_of(ba)));
  }

  // Free list accounts for every slot not open (bounded walk — a cycle
  // would otherwise hang the audit).
  usize free_count = 0;
  for (u32 c = free_head_; c != kNil; c = cells_[c].next) {
    if (++free_count > config_.max_orders) {
      return fail("free list cycle");
    }
    if ((cells_[c].side_and_open & kOpenBit) != 0) {
      return fail("open cell %u on free list", c);
    }
  }
  if (free_count + open_orders_ != config_.max_orders) {
    return fail("slot leak: %zu free + %zu open != %zu", free_count,
                open_orders_, config_.max_orders);
  }

  // Slots never handed out are exactly as the constructor left them:
  // what lets a snapshot stop at the high-water mark.
  if (high_water_ > config_.max_orders) {
    return fail("high water %u > max orders %zu", high_water_,
                config_.max_orders);
  }
  for (usize i = high_water_; i < config_.max_orders; ++i) {
    const OrderCell& c = cells_[i];
    const u32 next = i + 1 < config_.max_orders ? static_cast<u32>(i + 1) : kNil;
    if (c.price != 0 || c.open != 0 || c.seq != 0 || c.cookie != 0 ||
        c.prev != kNil || c.next != next || c.gen != 1 ||
        c.side_and_open != 0) {
      return fail("cell %zu above high water %u is not pristine", i,
                  high_water_);
    }
  }
  return true;
}

}  // namespace rtseed::lob
