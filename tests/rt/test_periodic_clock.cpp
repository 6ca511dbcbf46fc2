#include "rt/periodic_clock.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "fault/injector.hpp"

namespace rtseed::rt {
namespace {

using common::millis;
using common::monotonic_now;
using common::Nanos;

TEST(SleepUntil, PastDeadlineReturnsImmediately) {
  const Nanos start = monotonic_now();
  sleep_until(start - common::seconds(1));
  EXPECT_LT(monotonic_now() - start, millis(50));
}

TEST(SleepFor, ApproximatelyAccurate) {
  const Nanos start = monotonic_now();
  sleep_for(millis(20));
  const Nanos elapsed = monotonic_now() - start;
  EXPECT_GE(elapsed, millis(19));
  EXPECT_LT(elapsed, millis(200));  // generous: container jitter
}

TEST(PeriodicClock, ReleasesAreSpacedByPeriod) {
  PeriodicClock clock(millis(20));
  clock.start();
  const Nanos r0 = clock.wait_next_release();
  const Nanos r1 = clock.wait_next_release();
  const Nanos r2 = clock.wait_next_release();
  EXPECT_EQ(r1 - r0, millis(20));
  EXPECT_EQ(r2 - r1, millis(20));
  EXPECT_EQ(clock.job_index(), 2);
  EXPECT_EQ(clock.overruns(), 0);
}

TEST(PeriodicClock, DeadlineIsReleasePlusPeriod) {
  PeriodicClock clock(millis(25));
  clock.start();
  const Nanos r = clock.wait_next_release();
  EXPECT_EQ(clock.current_release(), r);
  EXPECT_EQ(clock.current_deadline(), r + millis(25));
}

TEST(PeriodicClock, InitialOffsetDelaysFirstRelease) {
  PeriodicClock clock(millis(10), millis(30));
  const Nanos before = monotonic_now();
  clock.start();
  const Nanos r0 = clock.wait_next_release();
  EXPECT_GE(r0 - before, millis(29));
}

TEST(PeriodicClock, SkipsMissedReleasesInsteadOfBursting) {
  PeriodicClock clock(millis(10));
  clock.start();
  clock.wait_next_release();  // job 0
  sleep_for(millis(35));      // run past ~3 releases
  const Nanos before = monotonic_now();
  const Nanos r = clock.wait_next_release();
  // The next release must be in the future relative to the overrun end,
  // not a stale past release executed back-to-back.
  EXPECT_GE(r, before - millis(10));
  EXPECT_GT(clock.overruns(), 0);
  EXPECT_GT(clock.job_index(), 1);  // skipped indices are counted
}

TEST(PeriodicClock, WaitReturnsNonDecreasingReleases) {
  PeriodicClock clock(millis(5));
  clock.start();
  Nanos prev = 0;
  for (int i = 0; i < 5; ++i) {
    const Nanos r = clock.wait_next_release();
    EXPECT_GT(r, prev);
    prev = r;
  }
}

TEST(WakeLead, ConvergesOnSteadyLateness) {
  WakeLead lead(millis(1));
  for (int i = 0; i < 200; ++i) lead.observe(common::micros(10));
  EXPECT_NEAR(static_cast<double>(lead.lead()),
              static_cast<double>(2 * common::micros(10)),
              static_cast<double>(common::micros(1)));
}

TEST(WakeLead, OutlierCannotPushPastCap) {
  WakeLead lead(millis(1));
  for (int i = 0; i < 50; ++i) lead.observe(common::micros(20));
  const Nanos settled = lead.lead();
  lead.observe(millis(3));  // one steal spike
  EXPECT_LE(lead.lead(), lead.cap());
  EXPECT_LE(lead.lead() - settled, lead.cap() / 8);
  for (int i = 0; i < 1000; ++i) lead.observe(millis(3));
  EXPECT_LE(lead.lead(), lead.cap());
}

TEST(WakeLead, CapIsASixteenthOfThePeriod) {
  WakeLead lead(millis(1));
  EXPECT_EQ(lead.cap(), millis(1) / 16);
  lead.observe(-common::micros(5));  // a sleep cannot return early
  EXPECT_EQ(lead.lead(), 0);
}

TEST(PeriodicClock, EarlyWakeNeverReleasesEarly) {
  PeriodicClock clock(millis(1), millis(1), /*early_wake=*/true);
  clock.start();
  Nanos max_lead = 0;
  for (int i = 0; i < 200; ++i) {
    const Nanos release = clock.wait_next_release();
    const Nanos now = monotonic_now();
    ASSERT_GE(now, release) << "release " << i << " fired early";
    max_lead = std::max(max_lead, clock.wake_lead());
  }
  EXPECT_EQ(clock.clock_anomalies(), 0);
  EXPECT_GT(max_lead, 0);  // the early wake engaged: every sleep runs late
  EXPECT_LE(max_lead, millis(1) / 16);
}

TEST(PeriodicClock, EarlyWakeSurvivesClockJumps) {
  fault::InjectorConfig config;
  config.with_rate(fault::InjectPoint::kClockJump, 1.0);
  config.max_fires_per_point = 3;
  config.jump_ns = millis(5);
  fault::ScopedInjector scoped(config);

  PeriodicClock clock(millis(20), millis(5), /*early_wake=*/true);
  clock.start();
  for (int i = 0; i < 5; ++i) {
    const Nanos release = clock.wait_next_release();
    EXPECT_GE(monotonic_now(), release);
  }
  EXPECT_GE(clock.clock_anomalies(), 1L);
  EXPECT_LE(clock.clock_anomalies(), 3L);
}

}  // namespace
}  // namespace rtseed::rt
