// Book snapshot/restore and front_order: a restored book must be
// bit-identical to the source — same digest, same invariants, and the
// same FUTURE behaviour (slot allocation order, front-of-queue victims).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "lob/book.hpp"
#include "lob/flow.hpp"

namespace rtseed::lob {
namespace {

BookConfig small_band() {
  BookConfig config;
  config.min_tick = 1;
  config.num_levels = 256;
  config.max_orders = 512;
  return config;
}

/// Drives `count` generator events into `book` (the fuzzer's harness
/// shape: cancel/replace picks reduce over the front order).
void churn(BitmapBook& book, FlowGenerator& gen, int count) {
  for (int i = 0; i < count; ++i) {
    const FlowEvent ev = gen.next();
    switch (ev.kind) {
      case FlowKind::kAddLimit:
        book.add_limit(ev.side, ev.price, ev.qty, nullptr);
        break;
      case FlowKind::kMarket:
        book.add_market(ev.side, ev.qty, nullptr);
        break;
      case FlowKind::kCancel:
        book.cancel(book.front_order(ev.side));
        break;
      case FlowKind::kReplace: {
        SubmitResult readd;
        book.replace(book.front_order(ev.side), ev.price, ev.qty, nullptr,
                     &readd);
        break;
      }
    }
  }
}

TEST(BookSnapshot, RestoreIsBitIdenticalAndBehaviourEquivalent) {
  const BookConfig config = small_band();
  BitmapBook original(config);
  FlowGenerator gen(1234, config);
  churn(original, gen, 3000);
  ASSERT_GT(original.open_orders(), 0u);

  std::vector<unsigned char> image(original.snapshot_bytes());
  ASSERT_EQ(original.save_snapshot(image.data(), image.size()), image.size());

  BitmapBook restored(config);
  const auto status = restored.restore_snapshot(image.data(), image.size());
  ASSERT_TRUE(status.is_ok()) << status.to_string();

  char why[256];
  EXPECT_TRUE(restored.check_invariants(why, sizeof(why))) << why;
  EXPECT_EQ(restored.digest(), original.digest());
  EXPECT_EQ(restored.open_orders(), original.open_orders());
  EXPECT_EQ(restored.top().bid_price, original.top().bid_price);
  EXPECT_EQ(restored.top().ask_price, original.top().ask_price);

  // The strong property: the SAME future event stream drives both books
  // to the same digest — free-list order and seq counters survived too.
  FlowGenerator tail_a(555, config);
  FlowGenerator tail_b(555, config);
  churn(original, tail_a, 2000);
  churn(restored, tail_b, 2000);
  EXPECT_EQ(restored.digest(), original.digest());
  EXPECT_EQ(restored.stats().trades, original.stats().trades);

  // Grow both books past the restored high-water mark: the slots the
  // image did not carry must come out of the re-initialized tail exactly
  // as they come out of the original's never-touched one.
  const usize restored_high_water = restored.high_water();
  ASSERT_EQ(restored_high_water, original.high_water());
  ASSERT_LT(restored_high_water, config.max_orders);
  PriceTicks price = 1;
  for (usize i = 0; i < 4 * config.max_orders &&
                    restored.high_water() < config.max_orders;
       ++i, price = price % 8 + 1) {
    const SubmitResult a = original.add_limit(Side::kBid, price, 1, nullptr);
    const SubmitResult b = restored.add_limit(Side::kBid, price, 1, nullptr);
    ASSERT_EQ(a.id.value, b.id.value);
    ASSERT_EQ(a.seq, b.seq);
  }
  EXPECT_GT(restored.high_water(), restored_high_water);
  EXPECT_TRUE(restored.check_invariants(why, sizeof(why))) << why;
  EXPECT_EQ(restored.digest(), original.digest());
  EXPECT_EQ(restored.open_orders(), original.open_orders());
}

TEST(BookSnapshot, ImageScalesWithHighWater) {
  BookConfig config;  // the shard worker's default: a 16k-slot table
  ASSERT_EQ(config.max_orders, 16384u);
  BitmapBook book(config);
  EXPECT_EQ(book.high_water(), 0u);
  // 200 resting orders, bids below asks so nothing crosses.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(book.add_limit(Side::kBid, 1000 - i % 50, 1, nullptr).id.valid());
    ASSERT_TRUE(book.add_limit(Side::kAsk, 1100 + i % 50, 1, nullptr).id.valid());
  }
  ASSERT_EQ(book.open_orders(), 200u);
  EXPECT_EQ(book.high_water(), 200u);
  EXPECT_LT(book.snapshot_bytes(), 16u * 1024u);
  EXPECT_GE(book.max_snapshot_bytes(), config.max_orders * 48u);

  std::vector<unsigned char> image(book.max_snapshot_bytes());
  const usize written = book.save_snapshot(image.data(), image.size());
  EXPECT_EQ(written, book.snapshot_bytes());
  EXPECT_LT(written, 16u * 1024u);

  // Cancels free slots but never lower the mark: the freed cells sit on
  // the free list inside the prefix.
  book.cancel(book.front_order(Side::kBid));
  EXPECT_EQ(book.high_water(), 200u);
  EXPECT_EQ(book.snapshot_bytes(), written);

  // Restore into a book whose own high-water mark is higher: the cells
  // between the two marks must come back pristine.
  BitmapBook restored(config);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(restored.add_limit(Side::kAsk, 2000 + i, 1, nullptr).id.valid());
  }
  ASSERT_EQ(restored.high_water(), 300u);
  ASSERT_TRUE(restored.restore_snapshot(image.data(), written).is_ok());
  char why[256];
  EXPECT_TRUE(restored.check_invariants(why, sizeof(why))) << why;
  EXPECT_EQ(restored.open_orders(), 200u);
  EXPECT_EQ(restored.high_water(), 200u);
  // One byte short of the prefix is a truncated image.
  EXPECT_FALSE(restored.restore_snapshot(image.data(), written - 1).is_ok());
}

TEST(BookSnapshot, RestoreRejectsWrongConfigAndGarbage) {
  BitmapBook original(small_band());
  original.add_limit(Side::kBid, 100, 5, nullptr);
  std::vector<unsigned char> image(original.snapshot_bytes());
  ASSERT_EQ(original.save_snapshot(image.data(), image.size()), image.size());

  BookConfig other = small_band();
  other.num_levels = 128;
  BitmapBook mismatched(other);
  EXPECT_FALSE(
      mismatched.restore_snapshot(image.data(), image.size()).is_ok());

  BitmapBook target(small_band());
  EXPECT_FALSE(target.restore_snapshot(image.data(), 16).is_ok());
  image[0] ^= 0xFF;  // corrupt the magic
  EXPECT_FALSE(target.restore_snapshot(image.data(), image.size()).is_ok());
}

TEST(BookSnapshot, SaveRefusesUndersizedBuffer) {
  BitmapBook book(small_band());
  std::vector<unsigned char> tiny(16);
  EXPECT_EQ(book.save_snapshot(tiny.data(), tiny.size()), 0u);
}

TEST(FrontOrder, TracksTheBestLevelFifoHead) {
  BitmapBook book(small_band());
  EXPECT_FALSE(book.front_order(Side::kBid).valid());

  const auto first = book.add_limit(Side::kBid, 100, 5, nullptr);
  const auto second = book.add_limit(Side::kBid, 100, 7, nullptr);
  ASSERT_TRUE(first.id.valid());
  ASSERT_TRUE(second.id.valid());
  // Same level: FIFO head is the earlier arrival.
  EXPECT_EQ(book.front_order(Side::kBid).value, first.id.value);

  // A better price takes over the front.
  const auto better = book.add_limit(Side::kBid, 101, 1, nullptr);
  EXPECT_EQ(book.front_order(Side::kBid).value, better.id.value);

  book.cancel(better.id);
  EXPECT_EQ(book.front_order(Side::kBid).value, first.id.value);
  book.cancel(first.id);
  EXPECT_EQ(book.front_order(Side::kBid).value, second.id.value);
  book.cancel(second.id);
  EXPECT_FALSE(book.front_order(Side::kBid).valid());
}

}  // namespace
}  // namespace rtseed::lob
