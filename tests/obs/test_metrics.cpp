#include "obs/metrics.hpp"

#include <gtest/gtest.h>

namespace rtseed::obs {
namespace {

TEST(Counter, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.increment();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, SyncToRaisesNeverLowers) {
  Counter c;
  c.sync_to(10);
  EXPECT_EQ(c.value(), 10u);
  c.sync_to(5);
  EXPECT_EQ(c.value(), 10u);
  c.sync_to(20);
  EXPECT_EQ(c.value(), 20u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(1.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(MetricsRegistry, SameNameAndLabelsReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.counter("x_total", "help", {{"task", "t1"}});
  Counter* b = registry.counter("x_total", "help", {{"task", "t1"}});
  Counter* c = registry.counter("x_total", "help", {{"task", "t2"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistry, EntriesExposeLiveValues) {
  MetricsRegistry registry;
  Counter* c = registry.counter("hits_total", "hits");
  const auto entries = registry.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "hits_total");
  EXPECT_EQ(entries[0].type, MetricType::kCounter);
  c->add(7);  // written after the snapshot: pointers are live
  EXPECT_EQ(entries[0].counter->value(), 7u);
}

TEST(MetricsRegistry, DistinctTypesAreDistinctInstruments) {
  MetricsRegistry registry;
  registry.counter("a_total", "c");
  registry.gauge("b", "g");
  registry.hdr_histogram("h", "h");
  EXPECT_EQ(registry.size(), 3u);
  int counters = 0, gauges = 0, histograms = 0;
  for (const auto& e : registry.entries()) {
    counters += e.counter != nullptr;
    gauges += e.gauge != nullptr;
    histograms += e.hdr != nullptr;
  }
  EXPECT_EQ(counters, 1);
  EXPECT_EQ(gauges, 1);
  EXPECT_EQ(histograms, 1);
}

}  // namespace
}  // namespace rtseed::obs
