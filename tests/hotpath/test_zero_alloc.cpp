// Tier-1 enforcement of the zero-allocation steady state (ISSUE 7
// acceptance criterion; DESIGN.md §11): with the global alloc hook
// linked, a warmed-up OptionalPool round must perform ZERO heap
// allocations across the mandatory thread AND every worker.
//
// This module links rtseed_alloc_hook (tests/CMakeLists.txt) and is
// excluded from sanitizer builds, where the hook self-disables.
#include <gtest/gtest.h>

#include <atomic>

#include "common/arena.hpp"
#include "common/inplace_function.hpp"
#include "common/time.hpp"
#include "core/optional_pool.hpp"
#include "core/termination.hpp"
#include "obs/hotpath_audit.hpp"
#include "trading/analyzers.hpp"

using namespace rtseed;
using common::Nanos;

namespace {

core::JobContext job_at(common::JobId job, Nanos optional_budget) {
  core::JobContext ctx;
  ctx.job = job;
  ctx.release = common::monotonic_now();
  ctx.deadline = ctx.release + common::seconds(10);
  ctx.optional_deadline = ctx.release + optional_budget;
  return ctx;
}

// Without this the zero-deltas below would be vacuous.
TEST(ZeroAlloc, AllocHookIsInstalled) {
  ASSERT_TRUE(obs::alloc_hook_installed());
  // And live: a heap allocation must tick the counter.  Call the
  // replaceable function directly — a `new` EXPRESSION here could be
  // elided entirely (C++14 allocation elision) and was, under -O2.
  const auto before = obs::alloc_stats();
  void* p = ::operator new(32);
  const auto after = obs::alloc_stats();
  ::operator delete(p);
  EXPECT_GT(after.alloc_calls, before.alloc_calls);
}

TEST(ZeroAlloc, ArenaSteadyStateAllocatesNothing) {
  common::Arena arena;
  arena.reserve(4096);  // setup path: allocates once, audited out
  obs::HotpathAudit audit;
  for (int round = 0; round < 100; ++round) {
    arena.reset();
    auto* ints = arena.alloc_array<int>(64);
    ASSERT_NE(ints, nullptr);
    ints[0] = round;
  }
  EXPECT_EQ(audit.alloc_delta().alloc_calls, 0);
}

TEST(ZeroAlloc, InplaceFunctionDispatchAllocatesNothing) {
  int sink = 0;
  obs::HotpathAudit audit;
  for (int i = 0; i < 100; ++i) {
    common::InplaceFunction<void(int), 64> fn =
        [&sink](int v) { sink += v; };
    fn(i);
    common::FunctionRef<void(int)> ref = fn;
    ref(i);
  }
  EXPECT_EQ(audit.alloc_delta().alloc_calls, 0);
  EXPECT_EQ(sink, 2 * (99 * 100 / 2));
}

TEST(ZeroAlloc, RunWithDeadlinePeriodicCheckAllocatesNothing) {
  std::atomic<int> runs{0};
  const auto body = [&runs](core::StopToken& token) {
    (void)token.should_stop();
    runs.fetch_add(1, std::memory_order_relaxed);
  };
  // Warm-up: first call may initialize strategy-local state.
  (void)core::run_with_deadline(core::TerminationStrategy::kPeriodicCheck,
                                common::monotonic_now() + common::seconds(1),
                                body, {});
  obs::HotpathAudit audit;
  for (int i = 0; i < 100; ++i) {
    const auto outcome = core::run_with_deadline(
        core::TerminationStrategy::kPeriodicCheck,
        common::monotonic_now() + common::seconds(1), body, {});
    ASSERT_EQ(outcome.outcome, core::OptionalOutcome::kCompleted);
  }
  EXPECT_EQ(audit.alloc_delta().alloc_calls, 0);
  EXPECT_EQ(runs.load(std::memory_order_relaxed), 101);
}

// A full indicator round — streaming RollingStdDev rings bound to the
// scratch arena, the whole refinement ladder, every publish — must stay
// off the heap: this is the optional-part body the sharded trading path
// runs per tick (ISSUE 8 satellite).
TEST(ZeroAlloc, IndicatorAnalyzerRoundAllocatesNothing) {
  // Setup path: price history, analyzer, arena reserve — audited out.
  constexpr int kPrices = 256;
  double prices[kPrices];
  for (int i = 0; i < kPrices; ++i) {
    prices[i] = 1.0 + 0.01 * static_cast<double>(i % 17);
  }
  trading::IndicatorAnalyzer analyzer(10, 120);
  common::Arena arena(16 * 1024);

  class CountingSink final : public trading::ResultSink {
   public:
    void publish(const trading::AnalyzerOutput& output) override {
      last = output;
      ++publishes;
    }
    trading::AnalyzerOutput last;
    long publishes = 0;
  } sink;

  obs::HotpathAudit audit;
  for (int round = 0; round < 100; ++round) {
    arena.reset();  // what the pool does before every part
    core::StopToken token(common::monotonic_now() + common::seconds(1));
    analyzer.analyze(trading::PriceWindow(prices, kPrices), round, token,
                     sink, &arena);
  }
  const auto delta = audit.alloc_delta();
  EXPECT_EQ(delta.alloc_calls, 0)
      << "indicator rounds made " << delta.alloc_calls
      << " heap allocations (" << delta.alloc_bytes << " bytes)";
  EXPECT_GT(sink.publishes, 0);
  EXPECT_GT(arena.high_water(), 0u);
}

// THE gate: a full warmed-up pool round — publish, batched wake, worker
// dispatch through InplaceFunction, scratch arena recycle, termination
// wrapper, completion countdown — allocates nothing on any thread.
TEST(ZeroAlloc, OptionalPoolSteadyStateRoundAllocatesNothing) {
  for (const auto backend :
       {core::WakeBackend::kFutexBatch, core::WakeBackend::kCondvar}) {
    core::OptionalPool::Options options;
    options.termination = core::TerminationStrategy::kPeriodicCheck;
    options.fifo_priority = 0;
    options.cpus.assign(2, 0);
    options.name_prefix = "audit";
    options.completion_margin = common::millis(50);
    options.wake_backend = backend;
    std::atomic<long> bodies{0};
    core::OptionalPool pool(
        std::move(options),
        [&bodies](const core::JobContext& ctx, int, core::StopToken&) {
          // Touch the per-slot scratch arena like a real body would.
          if (ctx.scratch != nullptr) {
            auto* scratch = ctx.scratch->alloc_array<int>(16);
            if (scratch != nullptr) scratch[0] = 1;
          }
          bodies.fetch_add(1, std::memory_order_relaxed);
        });
    ASSERT_TRUE(pool.start().is_ok());

    // Warm-up: thread spawn, telemetry registration, first parks.
    for (int round = 0; round < 20; ++round) {
      (void)pool.run_round(job_at(round, common::seconds(1)), 2);
    }

    obs::HotpathAudit audit;
    constexpr int kRounds = 200;
    for (int round = 0; round < kRounds; ++round) {
      const auto result =
          pool.run_round(job_at(20 + round, common::seconds(1)), 2);
      ASSERT_EQ(result.completed + result.terminated, 2);
    }
    const auto delta = audit.alloc_delta();
    EXPECT_EQ(delta.alloc_calls, 0)
        << "backend " << core::wake_backend_name(pool.backend()) << " made "
        << delta.alloc_calls << " heap allocations over " << kRounds
        << " steady-state rounds (" << delta.alloc_bytes << " bytes)";
    pool.shutdown();
    EXPECT_EQ(bodies.load(std::memory_order_relaxed), (20 + kRounds) * 2);
  }
}

}  // namespace
