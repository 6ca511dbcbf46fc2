// Trace export: render_perfetto_trace turns a snapshot's begin/end pairs
// into per-part slices on a timeline anchored at the earliest event, marks
// deadline misses, keeps task names intact and escaped, and
// write_perfetto_trace writes exactly that document or reports the path
// it could not open.
#include "obs/perfetto_export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "json_check.hpp"

namespace rtseed::obs {
namespace {

using common::u64;
using rtseed::test::is_valid_json;

TraceEvent ev(u64 ts, EventKind kind, common::i32 arg = 0) {
  TraceEvent e;
  e.timestamp = ts;
  e.task = 0;
  e.arg = arg;
  e.kind = kind;
  return e;
}

// One virtual-clock thread running task 0 (named `task`).
TelemetrySnapshot snapshot_of(std::string task,
                              std::vector<TraceEvent> events) {
  TelemetrySnapshot snapshot;
  snapshot.clock = ClockDomain::kVirtual;
  snapshot.task_names = {std::move(task)};
  ThreadTrace thread;
  thread.name = "worker";
  thread.events = std::move(events);
  snapshot.threads.push_back(std::move(thread));
  return snapshot;
}

// Release at `release`; mandatory 40 us later, one optional part, wind-up.
std::vector<TraceEvent> one_job(u64 release) {
  return {
      ev(release, EventKind::kJobRelease),
      ev(release + 40'000, EventKind::kMandatoryBegin),
      ev(release + 20'000'000, EventKind::kMandatoryEnd),
      ev(release + 20'020'000, EventKind::kOptionalBegin, 1),
      ev(release + 70'000'000, EventKind::kOptionalEnd, 1),
      ev(release + 75'100'000, EventKind::kWindupBegin),
      ev(release + 85'100'000, EventKind::kWindupEnd),
  };
}

TEST(TraceExport, RendersAllPartsOfAJob) {
  const std::string json =
      render_perfetto_trace(snapshot_of("tau1", one_job(500'000'000)));
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("tau1/mandatory"), std::string::npos);
  EXPECT_NE(json.find("tau1/optional1"), std::string::npos);
  EXPECT_NE(json.find("tau1/wind-up"), std::string::npos);
  EXPECT_EQ(json.find("DEADLINE-MISS"), std::string::npos);
}

TEST(TraceExport, AnchorsAtEarliestRelease) {
  // The first mandatory part starts 40 us after the (anchored) release.
  const std::string json = render_perfetto_trace(
      snapshot_of("t", one_job(1'000'000'000'000)));
  EXPECT_NE(json.find("\"ts\":40.000"), std::string::npos) << json;
}

TEST(TraceExport, MarksDeadlineMisses) {
  auto events = one_job(0);
  events.push_back(ev(100'000'000, EventKind::kDeadlineMiss));
  const std::string json =
      render_perfetto_trace(snapshot_of("t", std::move(events)));
  EXPECT_NE(json.find("t/DEADLINE-MISS"), std::string::npos);
}

TEST(TraceExport, EscapesAdversarialTaskNames) {
  const std::string json =
      render_perfetto_trace(snapshot_of("ta\"u\\1\nx", one_job(0)));
  EXPECT_TRUE(is_valid_json(json)) << json;
  // The raw quote/backslash/newline must not appear unescaped.
  EXPECT_EQ(json.find("ta\"u"), std::string::npos);
  EXPECT_NE(json.find("ta\\\"u\\\\1\\nx"), std::string::npos);
}

TEST(TraceExport, LongTaskNamesAreNotTruncated) {
  const std::string name(600, 'q');
  const std::string json = render_perfetto_trace(snapshot_of(name, one_job(0)));
  EXPECT_NE(json.find(name + "/mandatory"), std::string::npos);
}

TEST(TraceExport, EmptyInputIsValidJson) {
  const std::string json = render_perfetto_trace(TelemetrySnapshot{});
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceExport, WritesFile) {
  const auto snapshot = snapshot_of("tau1", one_job(0));
  const std::string path = ::testing::TempDir() + "rtseed_trace_test.json";
  ASSERT_TRUE(write_perfetto_trace(path, snapshot).is_ok());
  std::ifstream in(path);
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(content, render_perfetto_trace(snapshot));
  EXPECT_TRUE(is_valid_json(content)) << content;
  EXPECT_NE(content.find("tau1/mandatory"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceExport, UnwritablePathReported) {
  EXPECT_FALSE(
      write_perfetto_trace("/nonexistent-dir/x.json", TelemetrySnapshot{})
          .is_ok());
}

}  // namespace
}  // namespace rtseed::obs
