#include "sched/p_rmwp.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "rt/priority.hpp"
#include "sched/generator.hpp"

namespace rtseed::sched {
namespace {

using common::millis;
using common::seconds;

ImpreciseTaskParams paper_task() {
  ImpreciseTaskParams t;
  t.name = "tau1";
  t.period = seconds(1);
  t.mandatory = millis(250);
  t.windup = millis(250);
  t.optional = {seconds(1), seconds(1), seconds(1), seconds(1)};
  return t;
}

TEST(PRmwp, SingleTaskPlanMatchesPaper) {
  TaskSet set;
  set.add(paper_task());
  const auto plan = plan_p_rmwp(set, 57);
  ASSERT_TRUE(plan.schedulable) << plan.diagnostics;
  ASSERT_EQ(plan.tasks.size(), 1u);
  const auto& tp = plan.tasks[0];
  EXPECT_EQ(tp.processor, 0);
  EXPECT_EQ(tp.mandatory_priority, 98);  // highest rank in [50, 98]
  EXPECT_EQ(tp.optional_priority, 49);   // exactly 49 below
  EXPECT_EQ(tp.optional_deadline, millis(750));  // OD = D - w
  EXPECT_EQ(tp.mandatory_response, millis(250));
}

TEST(PRmwp, PriorityGapIsAlways49) {
  common::Rng rng(9);
  GeneratorConfig config;
  config.num_tasks = 6;
  config.total_utilization = 1.5;
  const auto set = generate_task_set(config, rng);
  const auto plan = plan_p_rmwp(set, 4);
  if (!plan.schedulable) GTEST_SKIP() << plan.diagnostics;
  for (const auto& tp : plan.tasks) {
    EXPECT_EQ(tp.mandatory_priority - tp.optional_priority,
              rt::kPriorityGap);
    EXPECT_TRUE(rt::is_mandatory_priority(tp.mandatory_priority) ||
                tp.mandatory_priority == rt::kHpqPriority);
    EXPECT_TRUE(rt::is_optional_priority(tp.optional_priority));
  }
}

TEST(PRmwp, PerProcessorRmOrderMapsToDescendingPriorities) {
  TaskSet set;
  ImpreciseTaskParams fast = paper_task();
  fast.name = "fast";
  fast.period = millis(200);
  fast.mandatory = millis(10);
  fast.windup = millis(10);
  ImpreciseTaskParams slow = paper_task();
  slow.name = "slow";
  slow.period = millis(800);
  slow.mandatory = millis(20);
  slow.windup = millis(20);
  set.add(slow);
  set.add(fast);
  const auto plan = plan_p_rmwp(set, 1);
  ASSERT_TRUE(plan.schedulable) << plan.diagnostics;
  // Both on processor 0; the faster task gets the higher priority.
  EXPECT_EQ(plan.tasks[0].processor, 0);
  EXPECT_EQ(plan.tasks[1].processor, 0);
  EXPECT_GT(plan.tasks[1].mandatory_priority,
            plan.tasks[0].mandatory_priority);
}

TEST(PRmwp, RejectsUnschedulableSet) {
  TaskSet set;
  ImpreciseTaskParams t = paper_task();
  t.mandatory = millis(600);
  t.windup = millis(390);  // U = 0.99, mandatory response > OD on 1 proc
  set.add(t);
  set.add(t);
  const auto plan = plan_p_rmwp(set, 1);
  EXPECT_FALSE(plan.schedulable);
  EXPECT_FALSE(plan.diagnostics.empty());
}

TEST(PRmwp, RejectsInvalidInput) {
  TaskSet set;
  EXPECT_FALSE(plan_p_rmwp(set, 4).schedulable);  // empty
  set.add(paper_task());
  EXPECT_FALSE(plan_p_rmwp(set, 0).schedulable);  // no processors
  TaskSet bad;
  auto t = paper_task();
  t.period = -1;
  bad.add(t);
  EXPECT_FALSE(plan_p_rmwp(bad, 4).schedulable);
}

TEST(PRmwp, SpreadsLoadAcrossProcessors) {
  TaskSet set;
  for (int i = 0; i < 4; ++i) {
    std::string name = "t";
    name += std::to_string(i);
    auto t = paper_task();
    t.name = std::move(name);
    t.mandatory = millis(300);
    t.windup = millis(300);  // U = 0.6: two per processor do not fit
    set.add(t);
  }
  const auto plan = plan_p_rmwp(set, 4);
  ASSERT_TRUE(plan.schedulable) << plan.diagnostics;
  // First-fit decreasing with RMWP admission: each task alone.
  std::vector<int> used;
  for (const auto& tp : plan.tasks) used.push_back(tp.processor);
  std::sort(used.begin(), used.end());
  EXPECT_EQ(used, (std::vector<int>{0, 1, 2, 3}));
}

TEST(PRmwp, HpqOptionReservesPriority99ForHeavyTasks) {
  TaskSet set;
  auto heavy = paper_task();  // U = 0.5 > 57/169 on 57 processors
  set.add(heavy);
  PRmwpOptions options;
  options.use_hpq_for_heavy_tasks = true;
  const auto plan = plan_p_rmwp(set, 57, options);
  ASSERT_TRUE(plan.schedulable) << plan.diagnostics;
  EXPECT_EQ(plan.tasks[0].mandatory_priority, rt::kHpqPriority);
  // Optional stays in the NRTQ band.
  EXPECT_TRUE(rt::is_optional_priority(plan.tasks[0].optional_priority));
}

TEST(PRmwp, OdMarginMovesDeadlinesEarlier) {
  TaskSet set;
  set.add(paper_task());
  PRmwpOptions options;
  options.od_margin = millis(50);
  const auto plan = plan_p_rmwp(set, 57, options);
  ASSERT_TRUE(plan.schedulable) << plan.diagnostics;
  // Plain OD = 750ms; derated by the 50ms overhead margin.
  EXPECT_EQ(plan.tasks[0].optional_deadline, millis(700));
}

TEST(PRmwp, OdMarginCanMakeSetUnschedulable) {
  // Mandatory response (250ms) no longer fits OD = 750 − 501ms.
  TaskSet set;
  set.add(paper_task());
  PRmwpOptions options;
  options.od_margin = millis(501);
  const auto plan = plan_p_rmwp(set, 57, options);
  EXPECT_FALSE(plan.schedulable);
  EXPECT_NE(plan.diagnostics.find("margin"), std::string::npos);
}

TEST(PRmwp, ZeroMarginIsIdentity) {
  TaskSet set;
  set.add(paper_task());
  const auto plain = plan_p_rmwp(set, 57);
  PRmwpOptions options;
  options.od_margin = 0;
  const auto with_zero = plan_p_rmwp(set, 57, options);
  ASSERT_TRUE(plain.schedulable);
  ASSERT_TRUE(with_zero.schedulable);
  EXPECT_EQ(plain.tasks[0].optional_deadline,
            with_zero.tasks[0].optional_deadline);
}

TEST(PRmwp, UtilizationAccountingMatchesAssignment) {
  common::Rng rng(123);
  GeneratorConfig config;
  config.num_tasks = 6;
  config.total_utilization = 1.2;
  const auto set = generate_task_set(config, rng);
  const auto plan = plan_p_rmwp(set, 4);
  if (!plan.schedulable) GTEST_SKIP();
  std::vector<double> util(4, 0.0);
  for (TaskId i = 0; i < set.size(); ++i) {
    util[static_cast<size_t>(plan.tasks[static_cast<size_t>(i)].processor)] +=
        set[i].utilization();
  }
  for (int p = 0; p < 4; ++p) {
    EXPECT_NEAR(util[static_cast<size_t>(p)],
                plan.processor_utilization[static_cast<size_t>(p)], 1e-9);
  }
}

}  // namespace
}  // namespace rtseed::sched
