// rtseed_perfbench — end-to-end benchmark of the RT-Seed stack.
//
//   rtseed_perfbench --workload <oms_gateway|paper_trading|flow_stream>
//                    --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints a detail line (host record, diagnostics, verification errors) and
// then, as the last line, the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (metrics a workload does not exercise read 0).  Exits 1 when output
// verification fails, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.  Every end-to-end metric is defined on every
// workload; what it measures on each is documented in perfbench/README.md.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"peak_rss_mb", "MB"},  {"ok_ratio", "ratio"},
    {"latency_p50_us", "us"}, {"work_per_s", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.release_wait_us", "us"},
    {"core.fanout_us", "us"},
    {"core.optional_skew_us", "us"},
    {"core.completion_us", "us"},
    {"core.terminate_us", "us"},
    {"core.self_us", "us"},
    {"core.parts_completed_per_job", "count"},
    {"core.parts_terminated_per_job", "count"},
    {"core.parts_discarded_per_job", "count"},
    {"core.releases", "count"},
    {"core.skipped_releases", "count"},
    {"core.deadline_misses", "count"},
    {"rt.wakes_per_job", "count"},
    {"rt.sleeps_per_job", "count"},
    {"rt.wakes_per_event", "count"},
    {"rt.wakes_per_event_saturated", "count"},
    {"trading.mandatory_us", "us"},
    {"trading.optional_us", "us"},
    {"trading.windup_us", "us"},
    {"trading.self_us", "us"},
    {"trading.refinements_per_optional_ms", "1/ms"},
    {"lob.events_per_job", "count"},
    {"lob.fills_per_job", "count"},
    {"lob.risk_rejects", "count"},
    {"lob.mandatory_ns_per_event", "ns"},
    {"shard.post_ns", "ns"},
    {"shard.ingress_depth_mean", "count"},
    {"shard.ingress_depth_max", "count"},
    {"shard.refused_posts", "count"},
    {"shard.apply_skew", "ratio"},
    {"shard.child0_user_s", "s"},
    {"shard.child0_sys_s", "s"},
    {"shard.child1_user_s", "s"},
    {"shard.child1_sys_s", "s"},
    {"shard.journal_bytes_per_event", "B"},
    {"shard.egress_hop_us", "us"},
    {"shard.exec_reports", "count"},
    {"shard.drops", "count"},
    {"sched.analyze_ms", "ms"},
    {"fault.stalls", "count"},
    {"fault.probes", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.span_residual_us", "us"},
    {"obs.spans_dropped", "count"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_metrics(const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].first) + ": {\"value\": " +
           json_number(metrics[i].second.value) +
           ", \"unit\": " + json_string(metrics[i].second.unit) + "}";
  }
  return out + "}";
}

/// Keeps exactly the metrics of `specs`, in spec order; a metric the
/// workload does not exercise reads 0.  A metric the workload set under a
/// name or unit outside the spec is a bench bug and fails the run.
template <std::size_t N>
void select_metrics(Result& result, const MetricSpec (&specs)[N]) {
  std::vector<std::pair<std::string, Metric>> out;
  for (const auto& spec : specs) {
    Metric m{0.0, spec.unit};
    for (const auto& [name, metric] : result.metrics) {
      if (name == spec.name) {
        if (metric.unit != spec.unit) result.fail("unit mismatch for " + name);
        m.value = metric.value;
      }
    }
    if (!std::isfinite(m.value)) result.fail(std::string("non-finite ") + spec.name);
    out.emplace_back(spec.name, m);
  }
  for (const auto& [name, metric] : result.metrics) {
    bool known = false;
    for (const auto& spec : kEndToEnd) known = known || name == spec.name;
    for (const auto& spec : kPerLayer) known = known || name == spec.name;
    if (!known) result.fail("unlisted metric " + name);
  }
  result.metrics = std::move(out);
}

int usage() {
  std::fprintf(stderr,
               "usage: rtseed_perfbench --workload <oms_gateway|paper_trading|"
               "flow_stream> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n");
  return 2;
}

int run(int argc, char** argv) {
  Options options;
  options.out_dir = ".bench_run";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atoi(value);
    } else if (key == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.seconds < 1 || options.seconds > 600) return usage();
  Result (*workload)(const Options&) = nullptr;
  if (options.workload == "oms_gateway") workload = run_oms_gateway;
  if (options.workload == "paper_trading") workload = run_paper_trading;
  if (options.workload == "flow_stream") workload = run_flow_stream;
  if (workload == nullptr) return usage();
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);

  HostRecord host = host_begin();
  Result result = workload(options);
  host_end(host);
  if (options.trace) {
    select_metrics(result, kPerLayer);
  } else {
    select_metrics(result, kEndToEnd);
  }
  if (result.attempted == 0) result.fail("nothing attempted");

  std::string errors = "[";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    if (i > 0) errors += ", ";
    errors += json_string(result.errors[i]);
  }
  errors += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %d, \"trace\": %d, "
      "\"host\": {\"nproc\": %d, \"cpu_model\": %s, \"kernel\": %s, "
      "\"steal_ticks\": %llu, \"spin_gap_pct\": %s, \"spin_gap_max_us\": %s}, "
      "\"diagnostics\": %s, \"errors\": %s}\n",
      json_string(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, host.nproc, json_string(host.cpu_model).c_str(),
      json_string(host.kernel).c_str(),
      static_cast<unsigned long long>(host.steal_ticks),
      json_number(host.spin_gap_pct).c_str(), json_number(host.spin_gap_max_us).c_str(),
      json_metrics(result.diagnostics).c_str(), errors.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              json_metrics(result.metrics).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
