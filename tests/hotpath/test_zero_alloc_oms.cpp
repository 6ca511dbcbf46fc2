// Zero-allocation audit of a FULL OMS job round (ISSUE 9 acceptance
// criterion): mandatory market-flow burst + TTL sweep, depth-band
// optional parts on the OptionalPool (both wake backends), and
// the wind-up's order dispatch + exec report through the shard
// transport — all with the global alloc hook counting.  Everything the
// order path touches — book cells, level bitmaps, client records, TTL
// heap, victim pool, transport rings — is laid out at construction, so
// a single steady-state allocation here is a regression.
#include <gtest/gtest.h>

#include <atomic>

#include "common/time.hpp"
#include "core/optional_pool.hpp"
#include "obs/hotpath_audit.hpp"
#include "shard/transport.hpp"
#include "trading/oms_task.hpp"

using namespace rtseed;
using common::Nanos;

namespace {

core::JobContext job_at(common::JobId job) {
  core::JobContext ctx;
  ctx.job = job;
  ctx.release = common::monotonic_now();
  ctx.deadline = ctx.release + common::seconds(10);
  ctx.optional_deadline = ctx.deadline;
  return ctx;
}

trading::OmsTaskConfig audit_config() {
  trading::OmsTaskConfig cfg;
  cfg.oms.book.min_tick = 100;
  cfg.oms.book.num_levels = 512;
  cfg.oms.book.max_orders = 1024;
  cfg.oms.max_client_orders = 128;
  cfg.num_bands = 2;
  cfg.band_levels = 8;
  cfg.events_per_job = 64;
  cfg.entry_threshold = 0.0;  // trade every job: exercise the full path
  cfg.order_ttl = common::millis(5);
  return cfg;
}

// Direct (inline) OMS rounds first: isolates the order path itself from
// the pool machinery, so a failure here points at the book/OMS and a
// failure only in the pool variant points at dispatch plumbing.
TEST(ZeroAllocOms, InlineOmsRoundAllocatesNothing) {
  trading::OmsTask task(audit_config());
  auto transport = shard::ShardTransport::create(1);
  ASSERT_TRUE(transport.has_value());
  task.bind_transport(transport->get(), 0, 1);

  common::Arena arena(32 * 1024);
  // Warm-up: populate the book, prime every slot and the victim pool.
  for (int round = 0; round < 50; ++round) {
    auto ctx = job_at(round);
    ctx.scratch = &arena;
    arena.reset();
    task.on_mandatory(ctx);
    for (int part = 0; part < task.config().num_bands; ++part) {
      core::StopToken token(common::monotonic_now() + common::seconds(1));
      task.on_optional(ctx, part, token);
    }
    task.on_windup(ctx);
    while (shard::ShardMessage* m = (*transport)->poll_result(0)) {
      (*transport)->release(m);
    }
  }

  obs::HotpathAudit audit;
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    auto ctx = job_at(50 + round);
    ctx.scratch = &arena;
    arena.reset();
    task.on_mandatory(ctx);
    for (int part = 0; part < task.config().num_bands; ++part) {
      core::StopToken token(common::monotonic_now() + common::seconds(1));
      task.on_optional(ctx, part, token);
    }
    task.on_windup(ctx);
    // Drain the egress ring like the supervisor would (also steady
    // state: poll + release touch only the preallocated pool).
    while (shard::ShardMessage* m = (*transport)->poll_result(0)) {
      (*transport)->release(m);
    }
  }
  const auto delta = audit.alloc_delta();
  EXPECT_EQ(delta.alloc_calls, 0)
      << "inline OMS rounds made " << delta.alloc_calls
      << " heap allocations (" << delta.alloc_bytes << " bytes) over "
      << kRounds << " rounds";
  const auto s = task.stats();
  EXPECT_GT(s.orders_via_transport, 0u) << "order path never exercised";
  EXPECT_GT(s.exec_reports_posted, 0u);
  EXPECT_GT(s.bands_available, 0);
}

// THE gate: the same job round with the optional parts running on the
// OptionalPool — worker dispatch, wake fan-out, per-slot scratch arenas —
// on BOTH wake backends.
TEST(ZeroAllocOms, PooledOmsRoundAllocatesNothingOnBothBackends) {
  for (const auto backend :
       {core::WakeBackend::kFutexBatch, core::WakeBackend::kCondvar}) {
    trading::OmsTask task(audit_config());
    auto transport = shard::ShardTransport::create(1);
    ASSERT_TRUE(transport.has_value());
    task.bind_transport(transport->get(), 0, 1);

    core::OptionalPool::Options options;
    options.termination = core::TerminationStrategy::kPeriodicCheck;
    options.fifo_priority = 0;
    options.cpus.assign(2, 0);
    options.name_prefix = "oms-audit";
    options.completion_margin = common::millis(50);
    options.wake_backend = backend;
    core::OptionalPool pool(
        std::move(options),
        [&task](const core::JobContext& ctx, int part,
                core::StopToken& token) { task.on_optional(ctx, part, token); });
    ASSERT_TRUE(pool.start().is_ok());

    const int bands = task.config().num_bands;
    for (int round = 0; round < 30; ++round) {  // warm-up
      const auto ctx = job_at(round);
      task.on_mandatory(ctx);
      (void)pool.run_round(ctx, bands);
      task.on_windup(ctx);
      while (shard::ShardMessage* m = (*transport)->poll_result(0)) {
        (*transport)->release(m);
      }
    }

    obs::HotpathAudit audit;
    constexpr int kRounds = 150;
    for (int round = 0; round < kRounds; ++round) {
      const auto ctx = job_at(30 + round);
      task.on_mandatory(ctx);
      const auto result = pool.run_round(ctx, bands);
      ASSERT_EQ(result.completed + result.terminated, bands);
      task.on_windup(ctx);
      while (shard::ShardMessage* m = (*transport)->poll_result(0)) {
        (*transport)->release(m);
      }
    }
    const auto delta = audit.alloc_delta();
    EXPECT_EQ(delta.alloc_calls, 0)
        << "backend " << core::wake_backend_name(pool.backend()) << " made "
        << delta.alloc_calls << " heap allocations (" << delta.alloc_bytes
        << " bytes) over " << kRounds << " OMS rounds";
    pool.shutdown();
    EXPECT_GT(task.stats().bands_available, 0);
    EXPECT_GT(task.stats().orders_via_transport, 0u);
  }
}

}  // namespace
