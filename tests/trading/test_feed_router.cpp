#include "trading/feed_router.hpp"

#include <gtest/gtest.h>

#include <string>

#include "shard/sharded_runtime.hpp"

namespace rtseed::trading {
namespace {

using common::millis;
using common::u32;

core::TaskConfig tiny_task(const std::string& name) {
  core::TaskConfig tc;
  tc.params.name = name;
  tc.params.period = millis(20);
  tc.params.mandatory = millis(1);
  tc.params.windup = millis(1);
  tc.params.optional = {millis(20)};
  tc.num_jobs = 2;
  tc.callbacks.mandatory = [](const core::JobContext&) {};
  tc.callbacks.optional = [](const core::JobContext&, int,
                             core::StopToken& token) {
    while (!token.should_stop()) {
    }
  };
  tc.callbacks.windup = [](const core::JobContext&) {};
  return tc;
}

shard::ShardedRuntimeOptions two_shard_options() {
  shard::ShardedRuntimeOptions options;
  options.base.topology = common::Topology::uniform(2, 1);
  options.base.initial_offset = millis(5);
  options.base.termination = core::TerminationStrategy::kPeriodicCheck;
  options.num_shards = 2;
  options.from_env = false;
  return options;
}

TEST(FeedRouter, PumpsNothingBeforeTheRuntimeStarts) {
  shard::ShardedRuntime sr(two_shard_options());
  FeedRouter router(&sr);
  router.add_feed(1, std::make_unique<SyntheticFeed>());
  EXPECT_EQ(router.pump(0), 0);
  EXPECT_EQ(router.stats().routed, 0u);
}

TEST(FeedRouter, FansTicksOutToEachSymbolsShard) {
  shard::ShardedRuntime sr(two_shard_options());
  constexpr int kSymbols = 4;
  for (u32 sym = 0; sym < kSymbols; ++sym) {
    std::string name = "t";
    name += std::to_string(sym);
    ASSERT_TRUE(sr.admit(tiny_task(name), sym).is_ok());
  }
  ASSERT_TRUE(sr.start().is_ok());

  FeedRouter router(&sr);
  for (u32 sym = 0; sym < kSymbols; ++sym) {
    SyntheticFeedConfig config;
    config.seed = 100 + sym;
    router.add_feed(sym, std::make_unique<SyntheticFeed>(config));
  }
  ASSERT_EQ(router.num_feeds(), kSymbols);

  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    EXPECT_EQ(router.pump(millis(round)), kSymbols);
  }
  sr.wait_all_finished();

  EXPECT_EQ(router.stats().routed,
            static_cast<common::u64>(kRounds * kSymbols));
  EXPECT_EQ(router.stats().dropped, 0u);

  // Every tick sits on the ring of the shard its symbol was planned
  // onto, in per-symbol seq order.
  auto* transport = sr.transport();
  common::u64 next_seq[kSymbols] = {};
  common::u64 drained = 0;
  for (int s = 0; s < sr.num_shards(); ++s) {
    common::u64 on_shard = 0;
    while (shard::ShardMessage* msg = transport->poll(s)) {
      EXPECT_EQ(msg->kind, shard::MessageKind::kTick);
      EXPECT_LT(msg->symbol, static_cast<u32>(kSymbols));
      EXPECT_EQ(sr.shard_of(msg->symbol), s);
      EXPECT_EQ(msg->seq, next_seq[msg->symbol]++);
      EXPECT_GT(msg->body.tick.price, 0.0);
      transport->release(msg);
      ++on_shard;
      ++drained;
    }
    EXPECT_EQ(on_shard, router.stats().per_shard[static_cast<size_t>(s)]);
  }
  EXPECT_EQ(drained, router.stats().routed);
  sr.stop();
}

TEST(FeedRouter, CountsDropsWhenTheRingFills) {
  auto options = two_shard_options();
  options.transport.ring_capacity = 8;
  options.transport.pool_capacity = 64;
  shard::ShardedRuntime sr(std::move(options));
  ASSERT_TRUE(sr.admit(tiny_task("t"), 1).is_ok());
  ASSERT_TRUE(sr.start().is_ok());

  FeedRouter router(&sr);
  router.add_feed(1, std::make_unique<SyntheticFeed>());
  // 20 pumps into an 8-slot ring nobody drains: 8 land, 12 drop.
  common::u64 posted = 0;
  for (int round = 0; round < 20; ++round) {
    posted += static_cast<common::u64>(router.pump(millis(round)));
  }
  EXPECT_EQ(posted, 8u);
  EXPECT_EQ(router.stats().dropped, 12u);
  sr.wait_all_finished();
  sr.stop();
}

}  // namespace
}  // namespace rtseed::trading
