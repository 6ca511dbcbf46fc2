// Direct tests of the shared OptionalPool (the Fig. 6/7 protocol engine
// behind both ImpreciseTask and MultiPhaseTask).
#include "core/optional_pool.hpp"

#include "core/assignment.hpp"
#include "rt/topology.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rt_logger.hpp"

namespace rtseed::core {
namespace {

using common::millis;
using common::monotonic_now;
using common::Nanos;

OptionalPool::Options pool_options(int parts) {
  OptionalPool::Options options;
  options.fifo_priority = rt::rt_capabilities().sched_fifo ? 40 : 0;
  const auto topology = rt::Topology::native();
  options.cpus = assign_optional_parts(topology, AssignmentPolicy::kOneByOne,
                                       parts);
  options.name_prefix = "pool";
  return options;
}

JobContext job_with_od(Nanos od_from_now) {
  JobContext ctx;
  ctx.release = monotonic_now();
  ctx.optional_deadline = ctx.release + od_from_now;
  ctx.deadline = ctx.release + od_from_now * 2;
  return ctx;
}

TEST(OptionalPool, RunsAllRequestedParts) {
  std::atomic<int> runs{0};
  OptionalPool pool(pool_options(3),
                    [&](const JobContext&, int, StopToken&) { ++runs; });
  ASSERT_TRUE(pool.start().is_ok());
  const auto round = pool.run_round(job_with_od(millis(100)), 3);
  pool.shutdown();
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(round.completed, 3);
  EXPECT_EQ(round.terminated, 0);
}

TEST(OptionalPool, CountIsClampedToPoolSize) {
  std::atomic<int> runs{0};
  OptionalPool pool(pool_options(2),
                    [&](const JobContext&, int, StopToken&) { ++runs; });
  ASSERT_TRUE(pool.start().is_ok());
  const auto round = pool.run_round(job_with_od(millis(100)), 10);
  pool.shutdown();
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(round.completed, 2);
}

TEST(OptionalPool, ZeroCountIsNoOp) {
  OptionalPool pool(pool_options(2), [](const JobContext&, int, StopToken&) {
    FAIL() << "no part should run";
  });
  ASSERT_TRUE(pool.start().is_ok());
  const auto round = pool.run_round(job_with_od(millis(50)), 0);
  pool.shutdown();
  EXPECT_EQ(round.completed + round.terminated, 0);
}

TEST(OptionalPool, PartialRoundSignalsOnlyRequestedParts) {
  std::atomic<int> max_part{-1};
  OptionalPool pool(pool_options(4),
                    [&](const JobContext&, int part, StopToken&) {
                      int seen = max_part.load();
                      while (part > seen &&
                             !max_part.compare_exchange_weak(seen, part)) {
                      }
                    });
  ASSERT_TRUE(pool.start().is_ok());
  (void)pool.run_round(job_with_od(millis(100)), 2);
  pool.shutdown();
  EXPECT_LE(max_part.load(), 1);  // parts 2,3 never signalled
}

TEST(OptionalPool, OverrunningPartsTerminatedAtOd) {
  OptionalPool pool(pool_options(2),
                    [](const JobContext&, int, StopToken&) {
                      volatile double sink = 1.0;
                      for (;;) sink = sink * 1.0000001 + 1e-9;
                    });
  ASSERT_TRUE(pool.start().is_ok());
  const Nanos before = monotonic_now();
  const auto round = pool.run_round(job_with_od(millis(20)), 2);
  pool.shutdown();
  EXPECT_EQ(round.terminated, 2);
  EXPECT_EQ(round.completed, 0);
  EXPECT_GE(round.all_ended - before, millis(19));
  EXPECT_LT(round.all_ended - before, millis(80));
}

TEST(OptionalPool, SignalTimestampsOrdered) {
  OptionalPool pool(pool_options(2),
                    [](const JobContext&, int, StopToken&) {});
  ASSERT_TRUE(pool.start().is_ok());
  const auto round = pool.run_round(job_with_od(millis(50)), 2);
  pool.shutdown();
  EXPECT_LE(round.signal_start, round.signal_end);
  EXPECT_GT(round.first_part_start, 0);
  EXPECT_LE(round.signal_start, round.all_ended);
}

TEST(OptionalPool, ReusableAcrossManyRounds) {
  std::atomic<int> runs{0};
  OptionalPool pool(pool_options(2),
                    [&](const JobContext&, int, StopToken&) { ++runs; });
  ASSERT_TRUE(pool.start().is_ok());
  for (int round = 0; round < 10; ++round) {
    const auto result = pool.run_round(job_with_od(millis(50)), 2);
    EXPECT_EQ(result.completed, 2) << "round " << round;
  }
  pool.shutdown();
  EXPECT_EQ(runs.load(), 20);
}

TEST(OptionalPool, ShutdownIsIdempotentAndStartOnce) {
  OptionalPool pool(pool_options(1), [](const JobContext&, int, StopToken&) {});
  ASSERT_TRUE(pool.start().is_ok());
  EXPECT_FALSE(pool.start().is_ok());  // double start rejected
  pool.shutdown();
  pool.shutdown();  // no-op
}

TEST(OptionalPool, BodyExceptionCountedAndRoundCompletes) {
  OptionalPool pool(pool_options(2),
                    [](const JobContext&, int part, StopToken&) {
                      if (part == 1) throw std::runtime_error("part fail");
                    });
  ASSERT_TRUE(pool.start().is_ok());
  const auto round = pool.run_round(job_with_od(millis(50)), 2);
  pool.shutdown();
  EXPECT_EQ(round.completed + round.terminated, 2);  // round not wedged
  EXPECT_EQ(pool.body_errors(), 1);
}

TEST(OptionalPool, CpuAccessorMatchesAssignment) {
  const auto topology = rt::Topology::native();
  OptionalPool pool(pool_options(3), [](const JobContext&, int, StopToken&) {});
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(pool.cpu(k),
              assign_cpu(topology, AssignmentPolicy::kOneByOne, k));
  }
  EXPECT_EQ(pool.size(), 3);
}

// Unknown RTSEED_WAKE_BACKEND values (including "futex", the name of a
// retired protocol) fall back to the default with one warning that names
// the accepted values; explicit requests ignore the variable.
TEST(OptionalPool, UnknownWakeBackendEnvFallsBackToBatchWithWarning) {
  const char* saved = std::getenv("RTSEED_WAKE_BACKEND");
  const std::string restore = saved != nullptr ? saved : "";
  auto& logger = common::global_logger();
  for (const char* value : {"futex", "bogus"}) {
    ::setenv("RTSEED_WAKE_BACKEND", value, 1);
    (void)logger.drain();
    EXPECT_EQ(resolve_wake_backend(WakeBackend::kAuto),
              WakeBackend::kFutexBatch)
        << value;
    const auto lines = logger.drain();
    ASSERT_EQ(lines.size(), 1u) << value;
    EXPECT_NE(lines[0].find(value), std::string::npos) << lines[0];
    EXPECT_NE(lines[0].find("futex-batch|condvar"), std::string::npos)
        << lines[0];
  }
  ::setenv("RTSEED_WAKE_BACKEND", "condvar", 1);
  EXPECT_EQ(resolve_wake_backend(WakeBackend::kAuto), WakeBackend::kCondvar);
  EXPECT_EQ(resolve_wake_backend(WakeBackend::kFutexBatch),
            WakeBackend::kFutexBatch);
  ::setenv("RTSEED_WAKE_BACKEND", "futex-batch", 1);
  (void)logger.drain();
  EXPECT_EQ(resolve_wake_backend(WakeBackend::kAuto), WakeBackend::kFutexBatch);
  EXPECT_TRUE(logger.drain().empty());
  if (saved != nullptr) {
    ::setenv("RTSEED_WAKE_BACKEND", restore.c_str(), 1);
  } else {
    ::unsetenv("RTSEED_WAKE_BACKEND");
  }
}

// The completion-wait spin rule is a pure function of the round's part
// CPUs and the caller's CPU; the pool applies it once per round.
TEST(CompletionSpinRule, CoLocatedPartMeansNoSpin) {
  const std::vector<common::CpuId> cpus{2, 3, 1};
  EXPECT_FALSE(completion_spin_allowed(cpus, 3, 2));
  EXPECT_FALSE(completion_spin_allowed(cpus, 3, 1));
}

TEST(CompletionSpinRule, AllRemotePartsMeanSpin) {
  const std::vector<common::CpuId> cpus{1, 2, 3};
  EXPECT_TRUE(completion_spin_allowed(cpus, 3, 0));
}

TEST(CompletionSpinRule, SingleCpuTopologyNeverSpins) {
  // Every part wraps onto the one CPU the caller runs on.
  const auto cpus = assign_optional_parts(common::Topology::uniform(1, 1),
                                          AssignmentPolicy::kOneByOne, 4);
  for (int count = 1; count <= 4; ++count) {
    EXPECT_FALSE(completion_spin_allowed(cpus, count, 0)) << count;
  }
}

TEST(CompletionSpinRule, ShedRoundSpinsWhenCoLocatedPartIsNotSignalled) {
  // Part 1 shares the caller's CPU, but a round shed to one part never
  // signals it.
  const std::vector<common::CpuId> cpus{1, 0};
  EXPECT_TRUE(completion_spin_allowed(cpus, 1, 0));
  EXPECT_FALSE(completion_spin_allowed(cpus, 2, 0));
  EXPECT_TRUE(completion_spin_allowed(cpus, 0, 0));
}

}  // namespace
}  // namespace rtseed::core
