// Flight recorder tests: overwrite-oldest ring semantics, the dump JSON,
// trigger rate limiting, the process-wide hook, and the Telemetry
// integration (flight.enabled mirrors every emitted event).
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "json_check.hpp"
#include "obs/telemetry.hpp"

namespace rtseed::obs {
namespace {

using common::u64;
using rtseed::test::is_valid_json;

TraceEvent ev(u64 ts, EventKind kind = EventKind::kJobRelease) {
  TraceEvent e;
  e.timestamp = ts;
  e.task = 0;
  e.job = 1;
  e.kind = kind;
  return e;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(FlightRing, KeepsTheLastNInOrder) {
  FlightRing ring("t", 4);
  for (u64 ts = 1; ts <= 6; ++ts) ring.record(ev(ts));
  EXPECT_EQ(ring.recorded(), 6u);
  const auto recent = ring.recent();
  ASSERT_EQ(recent.size(), 4u);
  for (u64 i = 0; i < 4; ++i) EXPECT_EQ(recent[i].timestamp, i + 3);
}

TEST(FlightRing, PartialFillReturnsOnlyRecorded) {
  FlightRing ring("t", 8);
  ring.record(ev(10));
  ring.record(ev(11));
  const auto recent = ring.recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].timestamp, 10u);
  EXPECT_EQ(recent[1].timestamp, 11u);
}

TEST(FlightRecorder, RendersSelfContainedJson) {
  FlightRecorderOptions options;
  options.enabled = true;
  options.events_per_thread = 8;
  options.tag = "unit";
  FlightRecorder recorder(options, "virtual");
  FlightRing* a = recorder.register_thread("alpha");
  FlightRing* b = recorder.register_thread("beta");
  a->record(ev(1, EventKind::kJobRelease));
  a->record(ev(2, EventKind::kMandatoryBegin));
  b->record(ev(3, EventKind::kBudgetOverrun));
  const std::string json = recorder.render_json("test-reason");
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"rtseed-flight-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"test-reason\""), std::string::npos);
  EXPECT_NE(json.find("\"clock\":\"virtual\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"budget-overrun\""), std::string::npos);
}

TEST(FlightRecorder, ControlCharactersInThreadNamesStayValidJson) {
  FlightRecorderOptions options;
  options.enabled = true;
  FlightRecorder recorder(options, "virtual");
  recorder.register_thread("tab\there\rcr\x01soh")->record(ev(1));
  const std::string json = recorder.render_json("escape");
  EXPECT_TRUE(rtseed::test::JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"name\":\"tab\\there\\rcr\\u0001soh\""),
            std::string::npos)
      << json;
}

TEST(FlightRecorder, TriggerWritesFilesAndRateLimits) {
  FlightRecorderOptions options;
  options.enabled = true;
  options.dump_dir = ::testing::TempDir();
  options.tag = "ratelimit";
  options.max_dumps = 2;
  FlightRecorder recorder(options, "virtual");
  recorder.register_thread("t")->record(ev(1));

  const std::string first = recorder.trigger("boom");
  const std::string second = recorder.trigger("boom");
  const std::string third = recorder.trigger("boom");
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  EXPECT_NE(first, second);
  EXPECT_TRUE(third.empty()) << "max_dumps must cap the dump count";
  EXPECT_EQ(recorder.dumps(), 2);

  const std::string content = slurp(first);
  EXPECT_TRUE(is_valid_json(content)) << content;
  EXPECT_NE(content.find("\"reason\":\"boom\""), std::string::npos);
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(FlightRecorder, GlobalHookIsInstallableAndRemovable) {
  FlightRecorderOptions options;
  options.enabled = true;
  options.dump_dir = ::testing::TempDir();
  options.tag = "hook";
  options.max_dumps = 1;
  FlightRecorder recorder(options, "virtual");
  recorder.register_thread("t")->record(ev(1));

  EXPECT_EQ(active_flight_recorder(), nullptr);
  flight_trigger("noop");  // no recorder installed: must be a no-op
  EXPECT_EQ(recorder.dumps(), 0);

  install_flight_recorder(&recorder);
  EXPECT_EQ(active_flight_recorder(), &recorder);
  flight_trigger("hooked");
  EXPECT_EQ(recorder.dumps(), 1);
  install_flight_recorder(nullptr);
  EXPECT_EQ(active_flight_recorder(), nullptr);

  const std::string path =
      options.dump_dir + "/flight-hook-hooked-0.json";
  EXPECT_FALSE(slurp(path).empty());
  std::remove(path.c_str());
}

TEST(FlightRecorder, TelemetryMirrorsEventsIntoTheRecorder) {
  TelemetryOptions options;
  options.enabled = true;
  options.clock = ClockDomain::kVirtual;
  options.flight.enabled = true;
  options.flight.events_per_thread = 16;
  options.flight.dump_dir = ::testing::TempDir();
  options.flight.tag = "telemetry";
  {
    Telemetry telemetry(options);
    ASSERT_NE(telemetry.flight_recorder(), nullptr);
    EXPECT_EQ(active_flight_recorder(), telemetry.flight_recorder());

    TraceBuffer* buffer = telemetry.register_thread("worker");
    buffer->emit(ev(1, EventKind::kJobRelease));
    buffer->emit(ev(2, EventKind::kDeadlineMiss));

    const std::string json =
        telemetry.flight_recorder()->render_json("inspect");
    EXPECT_TRUE(is_valid_json(json)) << json;
    EXPECT_NE(json.find("\"name\":\"worker\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"deadline-miss\""), std::string::npos);
    EXPECT_NE(json.find("\"recorded\":2"), std::string::npos);
  }
  // The Telemetry owned the installed recorder: destruction uninstalls it.
  EXPECT_EQ(active_flight_recorder(), nullptr);
}

TEST(FlightRecorder, DisabledTelemetryInstallsNothing) {
  TelemetryOptions options;
  options.enabled = true;
  options.clock = ClockDomain::kVirtual;  // flight.enabled stays false
  Telemetry telemetry(options);
  EXPECT_EQ(telemetry.flight_recorder(), nullptr);
  EXPECT_EQ(active_flight_recorder(), nullptr);
}

}  // namespace
}  // namespace rtseed::obs
