// Zero-allocation audit of the journaled shard worker's group-commit
// cycle — what a forked shard child runs after fork, where a heap
// allocation could deadlock on a lock another parent thread held at fork
// time: peek the queued ingress messages, journal them with one write,
// apply them to the book, commit the ring slots, release the cells, and
// write a snapshot every snapshot_every deltas.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <string>

#include "lob/flow.hpp"
#include "obs/hotpath_audit.hpp"
#include "shard/transport.hpp"
#include "shard/worker.hpp"

using namespace rtseed;

namespace {

TEST(ZeroAllocJournal, GroupCommitCycleAllocatesNothing) {
  char templ[] = "/tmp/rtseed_zero_alloc_journal_XXXXXX";
  ASSERT_NE(::mkdtemp(templ), nullptr);
  const std::string dir = templ;

  shard::WorkerConfig config;
  config.book.min_tick = 1;
  config.book.num_levels = 256;
  config.book.max_orders = 512;
  config.risk.max_order_qty = 0;
  config.snapshot_every = 64;
  config.journal_path = dir + "/w.journal";
  auto worker = shard::ShardWorker::create(config);
  ASSERT_TRUE(worker.has_value()) << worker.status().to_string();
  ASSERT_TRUE((*worker)->recover().has_value());
  auto transport = shard::ShardTransport::create(1);
  ASSERT_TRUE(transport.has_value());

  lob::FlowGenerator gen(17, config.book);
  common::u64 seq = 0;
  shard::ShardMessage* batch[shard::ShardWorker::kMaxBatch];
  // One round: queue `count` flow messages, then serve them the way the
  // shard child does.
  const auto round = [&](int count) {
    for (int i = 0; i < count; ++i) {
      shard::ShardMessage* msg = (*transport)->acquire();
      ASSERT_NE(msg, nullptr);
      const lob::FlowEvent event = gen.next();
      msg->kind = shard::MessageKind::kFlow;
      msg->seq = ++seq;
      msg->body.flow.price_ticks = event.price;
      msg->body.flow.qty = event.qty;
      msg->body.flow.flow_kind = static_cast<common::u32>(event.kind);
      msg->body.flow.side = static_cast<common::u32>(event.side);
      msg->body.flow.pick = event.pick;
      ASSERT_TRUE((*transport)->post(0, msg));
    }
    const common::usize n = (*transport)->peek_ingress_n(0, batch);
    ASSERT_EQ(n, static_cast<common::usize>(count));
    (*worker)->apply_batch(batch, n);
    (*transport)->commit_ingress_n(0, n);
    for (common::usize i = 0; i < n; ++i) (*transport)->release(batch[i]);
  };

  for (int r = 0; r < 20; ++r) round(50);  // warm-up

  obs::HotpathAudit audit;
  for (int r = 0; r < 200; ++r) round(1 + r % 100);
  const auto delta = audit.alloc_delta();
  EXPECT_EQ(delta.alloc_calls, 0)
      << "group-commit rounds made " << delta.alloc_calls
      << " heap allocations (" << delta.alloc_bytes << " bytes)";
  EXPECT_EQ((*worker)->applied_seq(), seq);

  ::unlink(config.journal_path.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
