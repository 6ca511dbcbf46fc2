// Stress and pathology tests of the OptionalPool handoff protocol, run
// against both wake backends (batched futex and the legacy condvar) — the
// suite the tsan CI entry executes.
//
// Everything here uses kPeriodicCheck termination: no timers, no signals,
// no siglongjmp — so ThreadSanitizer sees every synchronization edge and
// any data race in the protocol itself is attributable to the protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "core/optional_pool.hpp"
#include "rt/cpuset.hpp"
#include "rt/futex.hpp"

using namespace rtseed;
using common::Nanos;

namespace {

constexpr int kPoolSize = 4;

core::OptionalPool::Options stress_options(core::WakeBackend backend) {
  core::OptionalPool::Options options;
  options.termination = core::TerminationStrategy::kPeriodicCheck;
  options.fifo_priority = 0;  // unprivileged: plain CFS threads
  options.cpus.assign(kPoolSize, 0);
  options.name_prefix = "stress";
  options.completion_margin = common::millis(50);
  options.wake_backend = backend;
  return options;
}

core::JobContext job_at(common::JobId job, Nanos optional_budget) {
  core::JobContext ctx;
  ctx.job = job;
  ctx.release = common::monotonic_now();
  ctx.deadline = ctx.release + common::seconds(10);
  ctx.optional_deadline = ctx.release + optional_budget;
  return ctx;
}

class WakeProtocol : public ::testing::TestWithParam<core::WakeBackend> {};

// Thousands of back-to-back rounds with a random part count per round:
// every part signalled must be accounted for (completed or terminated),
// and no signal may leak into the next round.
TEST_P(WakeProtocol, StressRandomRoundSizes) {
  std::atomic<long> bodies_run{0};
  core::OptionalPool pool(
      stress_options(GetParam()),
      [&bodies_run](const core::JobContext&, int, core::StopToken&) {
        bodies_run.fetch_add(1, std::memory_order_relaxed);
      });
  ASSERT_TRUE(pool.start().is_ok());

  std::mt19937 rng(42);
  std::uniform_int_distribution<int> pick_count(1, kPoolSize);
  constexpr int kRounds = 2000;
  long signalled = 0;
  for (int round = 0; round < kRounds; ++round) {
    const int count = pick_count(rng);
    const auto result =
        pool.run_round(job_at(round, common::seconds(5)), count);
    ASSERT_EQ(result.completed + result.terminated, count)
        << "round " << round << " lost a part (backend "
        << core::wake_backend_name(pool.backend()) << ")";
    signalled += count;
  }
  pool.shutdown();
  EXPECT_EQ(bodies_run.load(std::memory_order_relaxed), signalled);
  EXPECT_EQ(pool.body_errors(), 0);
}

// Start/round/shutdown churn: shutdown repeatedly races workers that are
// mid-spin or mid-park (the window where a lost shutdown command would
// hang the join forever).
TEST_P(WakeProtocol, ShutdownRacesParkingWorkers) {
  for (int cycle = 0; cycle < 200; ++cycle) {
    core::OptionalPool pool(
        stress_options(GetParam()),
        [](const core::JobContext&, int, core::StopToken&) {});
    ASSERT_TRUE(pool.start().is_ok());
    // Odd cycles shut down while the workers have never run a round
    // (still on their very first park); even cycles catch them right
    // after a round, in the spin→park transition.
    if ((cycle & 1) == 0) {
      const auto result = pool.run_round(job_at(cycle, common::seconds(1)),
                                         1 + (cycle % kPoolSize));
      ASSERT_EQ(result.completed + result.terminated,
                1 + (cycle % kPoolSize));
    }
    pool.shutdown();  // must terminate: a hang here IS the failure
  }
}

// A straggler that ignores its deadline (the lost-wakeup / runaway-part
// pathology periodic-check is vulnerable to): only the force-after-margin
// path may stop it, the round must not return before it ended, and the
// next round must not overlap it.
TEST_P(WakeProtocol, ForceAfterMarginTerminatesStraggler) {
  std::atomic<Nanos> straggler_end{0};
  core::OptionalPool::Options options = stress_options(GetParam());
  options.completion_margin = common::millis(20);
  core::OptionalPool pool(
      std::move(options),
      [&straggler_end](const core::JobContext&, int part,
                       core::StopToken& token) {
        if (part != 1) return;  // part 0 completes instantly
        // Deliberately ignores should_stop(): spins until the mandatory
        // thread raises the slot's force flag.
        while (!token.forced()) rt::cpu_relax();
        straggler_end.store(common::monotonic_now(),
                            std::memory_order_release);
      });
  ASSERT_TRUE(pool.start().is_ok());

  // Small optional budget: the deadline passes while the straggler spins,
  // and completion_margin later the pool must force it.  (Wide enough
  // that the instant part 0 reliably finishes inside it even on a loaded
  // single-CPU host.)
  const auto round = pool.run_round(job_at(0, common::millis(20)), 2);
  EXPECT_EQ(round.terminated, 1);  // the straggler, past its deadline
  EXPECT_EQ(round.completed, 1);   // part 0
  const Nanos forced_end = straggler_end.load(std::memory_order_acquire);
  ASSERT_GT(forced_end, 0) << "straggler was never forced";
  EXPECT_LE(forced_end, round.all_ended);

  // No phase overlap: the next round's signal window must start strictly
  // after the straggler ended.
  const auto next = pool.run_round(job_at(1, common::seconds(1)), 2);
  EXPECT_GE(next.signal_start, forced_end);
  EXPECT_EQ(next.completed + next.terminated, 2);
}

// run_round must tolerate count == 0 and counts beyond the pool size
// (clamped) without touching the protocol state of parked workers.
TEST_P(WakeProtocol, DegenerateCounts) {
  core::OptionalPool pool(
      stress_options(GetParam()),
      [](const core::JobContext&, int, core::StopToken&) {});
  ASSERT_TRUE(pool.start().is_ok());
  const auto zero = pool.run_round(job_at(0, common::seconds(1)), 0);
  EXPECT_EQ(zero.completed + zero.terminated, 0);
  const auto clamped =
      pool.run_round(job_at(1, common::seconds(1)), kPoolSize + 3);
  EXPECT_EQ(clamped.completed + clamped.terminated, kPoolSize);
}

// The caller pinned to part 0's CPU: every round signals a part that
// shares the caller's CPU, so the completion wait parks at once and every
// round ends on the waiter-bit wake.  Random round sizes, and shutdown
// racing workers that are mid-spin or mid-park after a random number of
// rounds.
TEST_P(WakeProtocol, CoLocatedCallerStress) {
  const auto allowed = rt::get_current_affinity();
  ASSERT_TRUE(allowed.has_value());
  std::vector<common::CpuId> usable;
  for (common::CpuId cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (allowed->contains(cpu)) usable.push_back(cpu);
  }
  ASSERT_FALSE(usable.empty());
  core::OptionalPool::Options options = stress_options(GetParam());
  for (int k = 0; k < kPoolSize; ++k) {
    options.cpus[static_cast<size_t>(k)] =
        usable[static_cast<size_t>(k) % usable.size()];
  }
  const common::CpuId home = options.cpus[0];
  if (!rt::set_current_affinity(rt::CpuSet::single(home)).is_ok()) {
    GTEST_SKIP() << "cannot pin the calling thread";
  }
  struct RestoreAffinity {
    const rt::CpuSet& mask;
    ~RestoreAffinity() { (void)rt::set_current_affinity(mask); }
  } restore{*allowed};

  std::atomic<long> bodies_run{0};
  std::mt19937 rng(17);
  std::uniform_int_distribution<int> pick_count(1, kPoolSize);
  std::uniform_int_distribution<int> pick_rounds(0, 200);
  long signalled = 0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    core::OptionalPool pool(
        options,
        [&bodies_run](const core::JobContext&, int, core::StopToken&) {
          bodies_run.fetch_add(1, std::memory_order_relaxed);
        });
    ASSERT_TRUE(pool.start().is_ok());
    const int rounds = pick_rounds(rng);
    for (int round = 0; round < rounds; ++round) {
      const int count = pick_count(rng);
      ASSERT_EQ(rt::current_cpu(), home);
      ASSERT_FALSE(core::completion_spin_allowed(options.cpus, count, home));
      const auto result =
          pool.run_round(job_at(round, common::seconds(5)), count);
      ASSERT_EQ(result.completed + result.terminated, count)
          << "cycle " << cycle << " round " << round << " lost a part";
      signalled += count;
    }
    pool.shutdown();  // must terminate: a hang here IS the failure
    EXPECT_EQ(pool.body_errors(), 0);
  }
  EXPECT_EQ(bodies_run.load(std::memory_order_relaxed), signalled);
}

// Many rounds of maximum fan-out on the batched backend: with all workers
// parked, every round must cost exactly ONE wake syscall (the shared
// wake-generation broadcast), never one per worker.
TEST(WakeBatch, SingleWakePerFullFanOut) {
  core::OptionalPool pool(
      stress_options(core::WakeBackend::kFutexBatch),
      [](const core::JobContext&, int, core::StopToken&) {});
  ASSERT_TRUE(pool.start().is_ok());

  // Warm-up round so every worker has parked at least once.
  (void)pool.run_round(job_at(0, common::seconds(1)), kPoolSize);

  constexpr int kRounds = 50;
  long wakes_before = 0;
  long wakes_after = 0;
  {
    const auto s = rt::wake_stats();
    wakes_before = s.wake_calls;
  }
  for (int round = 1; round <= kRounds; ++round) {
    const auto result =
        pool.run_round(job_at(round, common::seconds(1)), kPoolSize);
    ASSERT_EQ(result.completed + result.terminated, kPoolSize);
  }
  {
    const auto s = rt::wake_stats();
    wakes_after = s.wake_calls;
  }
  pool.shutdown();

  // Per round: 1 batched worker wake + 1 completion wake to the mandatory
  // thread (remaining_ hitting zero), plus rare recovery re-wakes when a
  // worker is slow to consume.  The per-slot baseline would need kPoolSize
  // worker wakes per round; assert we stay well under that.
  const long wakes = wakes_after - wakes_before;
  EXPECT_LE(wakes, kRounds * 3)
      << "batched backend used ~" << (static_cast<double>(wakes) / kRounds)
      << " wake syscalls per round";
}

INSTANTIATE_TEST_SUITE_P(
    Backends, WakeProtocol,
    ::testing::Values(core::WakeBackend::kFutexBatch,
                      core::WakeBackend::kCondvar),
    [](const ::testing::TestParamInfo<core::WakeBackend>& info) {
      return info.param == core::WakeBackend::kFutexBatch
                 ? std::string("futex_batch")
                 : std::string("condvar");
    });

}  // namespace
