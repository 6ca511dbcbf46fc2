// Parameterized property tests over random task sets: the analytical
// invariants that must hold at every utilization level and seed.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sched/generator.hpp"
#include "sched/p_rmwp.hpp"
#include "sched/rm.hpp"
#include "sched/rmwp.hpp"
#include "sched/rta.hpp"

namespace rtseed::sched {
namespace {

struct SweepParam {
  double utilization;
  common::u64 seed;
};

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = "u";
  name += std::to_string(static_cast<int>(info.param.utilization * 100));
  name += "_s";
  name += std::to_string(info.param.seed);
  return name;
}

class AnalysisSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  TaskSet draw(int tasks = 5) {
    common::Rng rng(GetParam().seed);
    GeneratorConfig config;
    config.num_tasks = tasks;
    config.total_utilization = GetParam().utilization;
    config.min_period = common::millis(5);
    config.max_period = common::millis(200);
    return generate_task_set(config, rng);
  }
};

TEST_P(AnalysisSweep, UtilizationBoundsImplyRta) {
  // Sufficient tests never accept what the exact test rejects.
  for (int trial = 0; trial < 20; ++trial) {
    const auto set = draw();
    if (passes_liu_layland(set)) {
      EXPECT_TRUE(rm_schedulable(set));
    }
    if (passes_hyperbolic(set)) {
      EXPECT_TRUE(rm_schedulable(set));
    }
  }
}

TEST_P(AnalysisSweep, RmwpOdWithinValidRange) {
  const auto set = draw();
  const auto analysis = analyze_rmwp(set);
  if (!analysis.schedulable) return;
  for (TaskId i = 0; i < set.size(); ++i) {
    const auto idx = static_cast<size_t>(i);
    // 0 < R_mandatory <= OD < D, and L = D - OD >= w.
    EXPECT_GT(analysis.optional_deadline[idx], 0);
    EXPECT_LT(analysis.optional_deadline[idx], set[i].effective_deadline());
    EXPECT_GE(analysis.windup_window[idx], set[i].windup);
    ASSERT_TRUE(analysis.mandatory_response[idx].has_value());
    EXPECT_LE(*analysis.mandatory_response[idx],
              analysis.optional_deadline[idx]);
  }
}

TEST_P(AnalysisSweep, HighestPriorityTaskAlwaysGetsLatestPossibleOd) {
  // The RM-highest task suffers no interference: OD = D - w exactly.
  const auto set = draw();
  const auto analysis = analyze_rmwp(set);
  if (!analysis.schedulable) return;
  const auto order = rm_order(set);
  const auto top = static_cast<size_t>(order[0]);
  EXPECT_EQ(analysis.optional_deadline[top],
            set[order[0]].effective_deadline() - set[order[0]].windup);
}

TEST_P(AnalysisSweep, GrowingWindupNeverGrowsOd) {
  // Monotonicity: enlarging any wind-up part can only move its task's OD
  // earlier (or break schedulability).
  auto set = draw();
  const auto before = analyze_rmwp(set);
  if (!before.schedulable) return;
  for (TaskId i = 0; i < set.size(); ++i) {
    auto grown = set;
    grown[i].windup += grown[i].period / 100 + 1;
    if (grown[i].validate().is_ok()) {
      const auto after = analyze_rmwp(grown);
      if (!after.schedulable) continue;
      EXPECT_LE(after.optional_deadline[static_cast<size_t>(i)],
                before.optional_deadline[static_cast<size_t>(i)])
          << "task " << i;
    }
  }
}

TEST_P(AnalysisSweep, PartitionedPlanIsConsistent) {
  const auto set = draw(8);
  const auto plan = plan_p_rmwp(set, 4);
  if (!plan.schedulable) return;
  for (TaskId i = 0; i < set.size(); ++i) {
    const auto& tp = plan.tasks[static_cast<size_t>(i)];
    EXPECT_GE(tp.processor, 0);
    EXPECT_LT(tp.processor, 4);
    EXPECT_EQ(tp.mandatory_priority - tp.optional_priority, 49);
    EXPECT_GT(tp.optional_deadline, 0);
    EXPECT_LE(tp.mandatory_response, tp.optional_deadline);
  }
  // Per-processor utilization never exceeds 1 (RMWP admission implies it).
  for (double u : plan.processor_utilization) EXPECT_LE(u, 1.0 + 1e-9);
}

TEST_P(AnalysisSweep, MorProcessorsNeverHurtSchedulability) {
  const auto set = draw(8);
  const bool on4 = plan_p_rmwp(set, 4).schedulable;
  const bool on8 = plan_p_rmwp(set, 8).schedulable;
  if (on4) {
    EXPECT_TRUE(on8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    UtilizationSeedGrid, AnalysisSweep,
    ::testing::Values(SweepParam{0.3, 1}, SweepParam{0.3, 2},
                      SweepParam{0.5, 3}, SweepParam{0.5, 4},
                      SweepParam{0.7, 5}, SweepParam{0.7, 6},
                      SweepParam{0.85, 7}, SweepParam{0.85, 8},
                      SweepParam{0.95, 9}, SweepParam{0.95, 10},
                      SweepParam{1.2, 11}, SweepParam{1.6, 12},
                      SweepParam{2.4, 13}, SweepParam{3.2, 14}),
    sweep_name);

}  // namespace
}  // namespace rtseed::sched
