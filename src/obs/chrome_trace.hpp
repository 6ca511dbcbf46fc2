// Chrome trace-event ("traceEvents") JSON document builder.
//
// The trace exporter (obs/perfetto_export, over the live obs::Telemetry
// event stream) builds its document through this class, which owns the
// concerns snprintf-into-a-fixed-buffer code gets wrong: JSON string
// escaping (quotes, backslashes, control characters), arbitrary-length
// names, and comma placement.  The output loads in Perfetto
// (ui.perfetto.dev) and chrome://tracing.  json_escape() is also the one
// escaper behind the flight-recorder and attribution JSON documents.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace rtseed::obs {

/// Escapes a string for inclusion inside a JSON string literal (without
/// the surrounding quotes): ", \, and control characters < 0x20.
std::string json_escape(std::string_view s);

class ChromeTraceBuilder {
 public:
  /// Names the process/thread tracks (rendered as "M" metadata events).
  void set_process_name(int pid, std::string name);
  void set_thread_name(int pid, int tid, std::string name);

  /// A complete ("X") slice.  Times are microseconds on the trace clock.
  void add_complete(std::string name, int pid, int tid, double ts_us,
                    double dur_us);

  /// A thread-scoped instant ("i") event.
  void add_instant(std::string name, int pid, int tid, double ts_us);

  common::usize num_events() const;

  /// Renders the whole document: {"traceEvents":[...]}.
  std::string render() const;

 private:
  struct Meta {
    int pid = 0;
    int tid = 0;
    bool is_process = false;
    std::string name;
  };
  struct Event {
    std::string name;
    int pid = 0;
    int tid = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;
    bool instant = false;
  };

  std::vector<Meta> meta_;
  std::vector<Event> events_;
};

}  // namespace rtseed::obs
