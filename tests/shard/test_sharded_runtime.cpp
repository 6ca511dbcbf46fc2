#include "shard/sharded_runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>

namespace rtseed::shard {
namespace {

using common::millis;
using common::Topology;

core::TaskConfig tiny_task(const std::string& name,
                           std::atomic<long>* windups = nullptr) {
  core::TaskConfig tc;
  tc.params.name = name;
  tc.params.period = millis(20);
  tc.params.mandatory = millis(1);
  tc.params.windup = millis(1);
  tc.params.optional = {millis(20)};
  tc.num_jobs = 3;
  tc.callbacks.mandatory = [](const core::JobContext&) {};
  tc.callbacks.optional = [](const core::JobContext&, int,
                             core::StopToken& token) {
    while (!token.should_stop()) {
    }
  };
  tc.callbacks.windup = [windups](const core::JobContext&) {
    if (windups != nullptr) windups->fetch_add(1);
  };
  return tc;
}

ShardedRuntimeOptions two_shard_options() {
  ShardedRuntimeOptions options;
  options.base.topology = Topology::uniform(2, 1);
  options.base.initial_offset = millis(5);
  options.base.termination = core::TerminationStrategy::kPeriodicCheck;
  options.num_shards = 2;
  options.from_env = false;
  return options;
}

// ---------------------------------------------------------------------------
// carve_shards

TEST(CarveShards, LlcPolicyCutsOnDomainBoundaries) {
  const auto topo = Topology::uniform_numa(8, 1, 2);  // nodes {0-3},{4-7}
  const auto shards = carve_shards(topo, 2);
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0], (std::vector<common::CoreId>{0, 1, 2, 3}));
  EXPECT_EQ(shards[1], (std::vector<common::CoreId>{4, 5, 6, 7}));
}

TEST(CarveShards, UnevenCountsDifferByAtMostOne) {
  const auto topo = Topology::uniform(7, 1);
  const auto shards = carve_shards(topo, 3);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].size(), 3u);
  EXPECT_EQ(shards[1].size(), 2u);
  EXPECT_EQ(shards[2].size(), 2u);
  // Every core appears exactly once across the shards.
  std::set<common::CoreId> all;
  for (const auto& s : shards) all.insert(s.begin(), s.end());
  EXPECT_EQ(all.size(), 7u);
}

TEST(CarveShards, RejectsImpossibleCounts) {
  const auto topo = Topology::uniform(2, 1);
  EXPECT_TRUE(carve_shards(topo, 0).empty());
  EXPECT_TRUE(carve_shards(topo, 3).empty());
}

// ---------------------------------------------------------------------------
// ShardedRuntime

TEST(ShardedRuntime, AnalyzePlacesSymbolGroupsOnShards) {
  ShardedRuntime sr(two_shard_options());
  for (u32 sym = 0; sym < 4; ++sym) {
    std::string name = "t";
    name += std::to_string(sym);
    ASSERT_TRUE(sr.admit(tiny_task(name), sym).is_ok());
  }
  const auto plan = sr.analyze();
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
  ASSERT_TRUE(plan->feasible);
  EXPECT_EQ(sr.num_shards(), 2);
  for (u32 sym = 0; sym < 4; ++sym) {
    const int s = sr.shard_of(sym);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 2);
    EXPECT_EQ(s, plan->groups[sym].shard);
  }
  // Sub-topologies keep the parent's CPU ids.
  EXPECT_EQ(sr.shard_topology(0).num_cores(), 1);
  EXPECT_EQ(sr.shard_topology(1).cpu_at(0, 0), sr.shard_cores(1)[0]);
}

TEST(ShardedRuntime, ShardOfFallsBackToHashForUnknownSymbols) {
  ShardedRuntime sr(two_shard_options());
  ASSERT_TRUE(sr.admit(tiny_task("a"), 1).is_ok());
  ASSERT_TRUE(sr.analyze().has_value());
  const u32 unknown = 999;
  EXPECT_EQ(sr.shard_of(unknown), sched::home_shard(unknown, 2));
}

TEST(ShardedRuntime, EnvOverridesShardCount) {
  ::setenv("RTSEED_SHARDS", "4", 1);
  ShardedRuntimeOptions options = two_shard_options();
  options.num_shards = 0;
  options.from_env = true;
  options.base.topology = Topology::uniform_numa(4, 1, 2);
  ShardedRuntime sr(std::move(options));
  ASSERT_TRUE(sr.admit(tiny_task("a"), 1).is_ok());
  ASSERT_TRUE(sr.analyze().has_value());
  ::unsetenv("RTSEED_SHARDS");
  EXPECT_EQ(sr.num_shards(), 4);  // not the one-per-LLC default of 2
  EXPECT_EQ(sr.shard_cores(1), (std::vector<common::CoreId>{1}));
}

TEST(ShardedRuntime, MalformedEnvFailsLoudly) {
  ::setenv("RTSEED_SHARDS", "bogus", 1);
  ShardedRuntimeOptions options = two_shard_options();
  options.num_shards = 0;
  options.from_env = true;
  ShardedRuntime sr(std::move(options));
  ASSERT_TRUE(sr.admit(tiny_task("a"), 1).is_ok());
  const auto plan = sr.analyze();
  ::unsetenv("RTSEED_SHARDS");
  EXPECT_FALSE(plan.has_value());
}

TEST(ShardedRuntime, DefaultsToOneShardPerLlcDomain) {
  ShardedRuntimeOptions options;
  options.base.topology = Topology::uniform_numa(4, 1, 2);
  options.num_shards = 0;
  options.from_env = false;
  ShardedRuntime sr(std::move(options));
  ASSERT_TRUE(sr.admit(tiny_task("a"), 1).is_ok());
  ASSERT_TRUE(sr.analyze().has_value());
  EXPECT_EQ(sr.num_shards(), 2);
}

TEST(ShardedRuntime, RunsTasksToCompletionAcrossShards) {
  std::atomic<long> windups{0};
  ShardedRuntime sr(two_shard_options());
  for (u32 sym = 0; sym < 4; ++sym) {
    ASSERT_TRUE(
        sr.admit(tiny_task("run" + std::to_string(sym), &windups), sym)
            .is_ok());
  }
  ASSERT_TRUE(sr.start().is_ok());
  EXPECT_TRUE(sr.started());
  sr.wait_all_finished();
  const auto report = sr.stop_and_report();
  ASSERT_EQ(report.shards.size(), 2u);
  // 4 tasks x 3 jobs, distributed over the two shard runtimes.
  EXPECT_EQ(windups.load(), 12);
  usize reported = 0;
  for (const auto& shard : report.shards) reported += shard.tasks.size();
  EXPECT_EQ(reported, 4u);
  EXPECT_EQ(report.ingress_drops, 0u);
}

TEST(ShardedRuntime, AdmitAfterStartFails) {
  ShardedRuntime sr(two_shard_options());
  ASSERT_TRUE(sr.admit(tiny_task("a"), 1).is_ok());
  ASSERT_TRUE(sr.start().is_ok());
  EXPECT_FALSE(sr.admit(tiny_task("b"), 2).is_ok());
  sr.stop();
}

}  // namespace
}  // namespace rtseed::shard
