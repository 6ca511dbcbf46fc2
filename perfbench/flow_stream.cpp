// flow_stream: ProcessShardRuntime with two forked, journaled shard
// workers on the default WorkerConfig.  One bench thread posts order flow
// over 16 symbols in two phases:
//
//   paced      open loop at kPacedRate events/s in total; the workers park
//              between events, so every post rings the futex doorbell.
//              Latency runs from an event's DUE time until this thread
//              sees the shard's applied_seq reach the event's seq.
//   saturated  kBursts bursts of kBurstEvents events, re-posting whenever
//              a ring is full; the rings never drain, so the doorbell is
//              skipped and journal append + book apply set the rate.
//
// A run is a series of ROUNDS of about kRoundSeconds, each a fresh
// deployment (fresh journal directory, removed when the round ends) with
// its own seeded stream.  Rounds bound the journal's footprint to one
// round's worth, and spread the run over several deployments: how the
// processes land on the host varies between deployments as much as
// between runs.
//
// The core layer is bypassed.  After each round every worker's book
// digest and position are checked against an in-process ShardWorker
// mirror fed the same seeded stream, minus the posts that were refused.
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "lob/flow.hpp"
#include "rt/futex.hpp"
#include "sched/sharded.hpp"
#include "shard/process_runtime.hpp"
#include "shard/worker.hpp"

namespace perfbench {

namespace {

using rtseed::common::millis;
using rtseed::common::monotonic_now;
using rtseed::shard::ProcessShardRuntime;
using rtseed::shard::ShardState;

constexpr int kShards = 2;
constexpr int kSymbols = 16;
constexpr int kSetups = 9;
constexpr double kPacedRate = 50000.0;
constexpr Nanos kPacedGap = static_cast<Nanos>(1e9 / kPacedRate);
constexpr u64 kBurstEvents = 32768;
constexpr int kBursts = 8;  ///< per round
constexpr int kRoundSeconds = 5;
constexpr std::size_t kPendingCapacity = 1u << 15;
constexpr u64 kSpanEvery = 16;  ///< traced runs keep spans of every 16th event

/// The seeded input: which symbol each event is for and the event itself.
/// Symbols are fixed (eight homed on each shard) so that every seed loads
/// the shards evenly; the seed drives the event stream.
class EventSource {
 public:
  EventSource(u64 seed, const rtseed::lob::BookConfig& band)
      : pick_state_(derive_seed(seed, 7)) {
    int per_shard[kShards] = {};
    for (u32 candidate = 1; static_cast<int>(symbols_.size()) < kSymbols; ++candidate) {
      const int home = rtseed::sched::home_shard(candidate, kShards);
      if (per_shard[home] < kSymbols / kShards) {
        ++per_shard[home];
        symbols_.push_back(candidate);
      }
    }
    for (int s = 0; s < kSymbols; ++s) {
      flows_.emplace_back(derive_seed(seed, 1000 + static_cast<u64>(s)), band);
    }
  }

  u32 next(rtseed::lob::FlowEvent* event) {
    const auto s = static_cast<std::size_t>(rtseed::common::splitmix64(pick_state_) %
                                            kSymbols);
    *event = flows_[s].next();
    return symbols_[s];
  }

 private:
  u64 pick_state_;
  std::vector<u32> symbols_;
  std::vector<rtseed::lob::FlowGenerator> flows_;
};

/// A per-deployment journal directory, removed with everything in it.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::create_directories(path_, ec);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct Deployment {
  std::unique_ptr<ScratchDir> dir;  ///< declared first: removed last
  std::unique_ptr<ProcessShardRuntime> runtime;
  double setup_s = 0.0;
};

struct Pending {
  u64 seq = 0;
  u64 event = 0;  ///< paced event number within the run (span job id)
  Nanos due = 0;
  Nanos post_begin = 0;
  Nanos post_end = 0;
};

/// Fixed-capacity FIFO of posted-but-not-yet-applied events per shard.
class PendingRing {
 public:
  PendingRing() : slots_(kPendingCapacity) {}
  bool push(Pending p) {
    if (tail_ - head_ == slots_.size()) return false;
    slots_[tail_++ % slots_.size()] = p;
    return true;
  }
  bool empty() const { return head_ == tail_; }
  const Pending& front() const { return slots_[head_ % slots_.size()]; }
  void pop() { ++head_; }

 private:
  std::vector<Pending> slots_;
  std::size_t head_ = 0, tail_ = 0;
};

struct RunStats {
  std::vector<double> setup_s;
  LatencyHist apply;     ///< paced: due → applied_seq seen
  Windows apply_windows; ///< the same, per 1 s window of due time
  LatencyHist lateness;  ///< paced: due → post (how late the generator ran)
  LatencyHist post;      ///< post_flow() call (traced only)
  SpanLog* spans = nullptr;  ///< traced only
  u32 n_event = 0, n_wait = 0, n_post = 0, n_apply = 0;  ///< interned span names
  u64 untracked = 0;     ///< paced events posted past a full pending ring
  std::vector<double> burst_eps;
  u64 paced_events = 0;
  u64 paced_refused = 0;
  u64 saturated_events = 0;
  u64 saturated_retries = 0;
  u64 paced_wakes = 0;
  u64 saturated_wakes = 0;
  double depth_sum = 0.0;
  u64 depth_samples = 0;
  u64 depth_max = 0;
  u64 applied[kShards] = {};
  double child_user_s[kShards] = {};
  double child_sys_s[kShards] = {};
  u64 journal_bytes = 0;
  u64 stalls = 0, probes = 0;
  double peak_rss_mib = 0.0;
  std::vector<std::string> errors;
};

Deployment set_up(const Options& options, int index, std::vector<std::string>* errors) {
  Deployment d;
  d.dir = std::make_unique<ScratchDir>(options.out_dir + "/journal-" +
                                       std::to_string(::getpid()) + "-" +
                                       std::to_string(index));
  const Nanos t0 = monotonic_now();
  rtseed::shard::ProcessRuntimeOptions process;
  process.num_shards = kShards;
  process.journal_dir = d.dir->path();
  auto runtime = ProcessShardRuntime::create(process);
  if (!runtime.has_value()) {
    errors->push_back("create: " + runtime.status().to_string());
    return d;
  }
  d.runtime = std::move(*runtime);
  if (auto st = d.runtime->start(); !st) {
    errors->push_back("start: " + st.to_string());
    d.runtime.reset();
    return d;
  }
  const Nanos give_up = monotonic_now() + rtseed::common::seconds(5);
  for (int s = 0; s < kShards; ++s) {
    while (d.runtime->control(s)->state.load(std::memory_order_acquire) !=
           static_cast<u32>(ShardState::kRunning)) {
      if (monotonic_now() > give_up) {
        errors->push_back("shard " + std::to_string(s) + " not running within 5 s");
        d.runtime.reset();
        return d;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  d.setup_s = static_cast<double>(monotonic_now() - t0) / 1e9;
  return d;
}

/// Moves every pending event whose seq the shard has applied into the
/// apply latency (and, traced, its spans).
void observe_applied(ProcessShardRuntime& rt, PendingRing* pending, RunStats& stats,
                     Nanos origin, Nanos now) {
  for (int s = 0; s < kShards; ++s) {
    if (pending[s].empty()) continue;
    const u64 applied = rt.control(s)->applied_seq.load(std::memory_order_acquire);
    while (!pending[s].empty() && pending[s].front().seq <= applied) {
      const Pending& p = pending[s].front();
      stats.apply.record_ns(now - p.due);
      stats.apply_windows.record(p.due - origin, now - p.due);
      if (stats.spans != nullptr && p.event % kSpanEvery == 0) {
        SpanLog& log = *stats.spans;
        const auto track = static_cast<u32>(s);
        const auto job = static_cast<i64>(p.event);
        const i64 root = log.add(stats.n_event, track, -1, job, p.due, now);
        log.add(stats.n_wait, track, root, job, p.due, p.post_begin);
        log.add(stats.n_post, track, root, job, p.post_begin, p.post_end);
        log.add(stats.n_apply, track, root, job, p.post_end, now);
      }
      pending[s].pop();
    }
  }
}

bool all_applied(ProcessShardRuntime& rt, const u64* posted) {
  for (int s = 0; s < kShards; ++s) {
    if (rt.control(s)->applied_seq.load(std::memory_order_acquire) < posted[s]) {
      return false;
    }
  }
  return true;
}

void sample_depth(ProcessShardRuntime& rt, int shard, RunStats& stats) {
  const auto depth = rt.transport()->ingress_size_approx(shard);
  stats.depth_sum += static_cast<double>(depth);
  ++stats.depth_samples;
  stats.depth_max = std::max<u64>(stats.depth_max, depth);
}

/// Pins the posting thread and each shard process to CPUs of their own,
/// so the paced doorbell is the same cross-CPU wake on every run.  Left
/// to the scheduler, a worker sometimes shares the spinning producer's
/// CPU and the apply latency halves: runs come out bimodal.  Restores
/// the thread's original mask on destruction.
class Placement {
 public:
  explicit Placement(ProcessShardRuntime& rt) {
    CPU_ZERO(&saved_);
    if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus.push_back(c);
    }
    if (static_cast<int>(cpus.size()) < kShards + 1) return;
    for (int s = 0; s < kShards; ++s) {
      pin(static_cast<pid_t>(rt.control(s)->pid.load(std::memory_order_acquire)),
          cpus[static_cast<std::size_t>(s)]);
    }
    pinned_ = pin(0, cpus.back());
  }
  ~Placement() {
    if (pinned_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  Placement(const Placement&) = delete;
  Placement& operator=(const Placement&) = delete;

 private:
  static bool pin(pid_t pid, int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return ::sched_setaffinity(pid, sizeof(set), &set) == 0;
  }

  cpu_set_t saved_;
  bool pinned_ = false;
};

u64 file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<u64>(st.st_size) : 0;
}

/// Runs both phases of one round.  Paced latencies land in the windows
/// from `window_base` on; `refused` (stream positions) and `posted` (per
/// shard) are what the mirror check needs.
void measure(ProcessShardRuntime& rt, u64 stream_seed, bool traced, int paced_seconds,
             Nanos window_base, RunStats& stats, std::vector<u64>* refused,
             u64* posted) {
  EventSource source(stream_seed, rtseed::shard::WorkerConfig{}.book);
  std::vector<PendingRing> pending(kShards);
  rtseed::lob::FlowEvent event;
  u64 index = 0;

  // ---- paced phase ------------------------------------------------------
  const auto wake0 = rtseed::rt::wake_stats();
  const Nanos start = monotonic_now() + millis(1);
  const Nanos paced_end = start + rtseed::common::seconds(paced_seconds);
  const Nanos origin = start - window_base;
  for (u64 i = 0;; ++i) {
    const Nanos due = start + static_cast<Nanos>(i) * kPacedGap;
    if (due >= paced_end) break;
    Nanos now = monotonic_now();
    while (now < due) {
      observe_applied(rt, pending.data(), stats, origin, now);
      now = monotonic_now();
    }
    const u32 symbol = source.next(&event);
    const int shard = rt.shard_of(symbol);
    if (traced) sample_depth(rt, shard, stats);
    const bool ok = rt.post_flow(symbol, event);
    const Nanos after = monotonic_now();
    if (traced) stats.post.record_ns(after - now);
    stats.lateness.record_ns(now - due);
    if (ok) {
      ++posted[shard];
      // A backlog past the ring's capacity is still posted and applied;
      // only its latency goes unrecorded.
      if (!pending[static_cast<std::size_t>(shard)].push(
              Pending{posted[shard], stats.paced_events, due, now, after})) {
        ++stats.untracked;
      }
    } else {
      ++stats.paced_refused;
      refused->push_back(index);
    }
    ++index;
    ++stats.paced_events;
  }
  const Nanos drain_deadline = monotonic_now() + rtseed::common::seconds(10);
  for (;;) {
    const Nanos now = monotonic_now();
    observe_applied(rt, pending.data(), stats, origin, now);
    bool empty = true;
    for (const auto& p : pending) empty = empty && p.empty();
    if (empty) break;
    if (now > drain_deadline) {
      stats.errors.push_back("paced events not applied within 10 s");
      return;
    }
  }
  const auto wake1 = rtseed::rt::wake_stats();
  stats.paced_wakes += wake1.wake_calls - wake0.wake_calls;

  // ---- saturated phase --------------------------------------------------
  const std::size_t ring_capacity = rtseed::shard::TransportOptions{}.ring_capacity;
  for (int b = 0; b < kBursts; ++b) {
    const Nanos t0 = monotonic_now();
    const Nanos give_up = t0 + rtseed::common::seconds(10);
    for (u64 n = 0; n < kBurstEvents; ++n) {
      const u32 symbol = source.next(&event);
      const int shard = rt.shard_of(symbol);
      if (traced && (n & 63) == 0) sample_depth(rt, shard, stats);
      // Back-pressure: wait for ring space rather than burning pool cells
      // on posts that would be refused, then re-post until accepted.
      for (;;) {
        if (rt.transport()->ingress_size_approx(shard) < ring_capacity) {
          if (rt.post_flow(symbol, event)) break;
          ++stats.saturated_retries;
        }
        if (monotonic_now() > give_up) {
          stats.errors.push_back("saturated burst stalled for 10 s");
          return;
        }
      }
      ++posted[shard];
      ++index;
    }
    while (!all_applied(rt, posted)) {
      if (monotonic_now() > give_up) {
        stats.errors.push_back("saturated burst not applied within 10 s");
        return;
      }
    }
    const Nanos t1 = monotonic_now();
    stats.burst_eps.push_back(static_cast<double>(kBurstEvents) * 1e9 /
                              static_cast<double>(t1 - t0));
    stats.saturated_events += kBurstEvents;
  }
  stats.saturated_wakes += rtseed::rt::wake_stats().wake_calls - wake1.wake_calls;
}

/// What a round left in its shard processes, for the mirror check.
struct RoundOutcome {
  u64 stream_seed = 0;
  std::vector<u64> refused;
  u64 posted[kShards] = {};
  u64 digest[kShards] = {};
  i64 position[kShards] = {};
};

/// Waits for every posted event to be applied, then reads each shard's
/// book digest and position.
bool read_outcome(ProcessShardRuntime& rt, RoundOutcome& out, RunStats& stats) {
  for (int s = 0; s < kShards; ++s) {
    if (!rt.quiesce(s, rtseed::common::seconds(10))) {
      stats.errors.push_back("shard " + std::to_string(s) + " did not quiesce");
      return false;
    }
    auto digest = rt.request_digest(s, rtseed::common::seconds(5));
    if (!digest.has_value()) {
      stats.errors.push_back(digest.status().to_string());
      return false;
    }
    out.digest[s] = *digest;
    out.position[s] = rt.control(s)->position.load(std::memory_order_acquire);
  }
  return true;
}

/// Replays a round's seeded stream into in-process workers, skipping the
/// refused posts, and compares digest and position with what the shard
/// processes reported.  Runs after the measured rounds, so the mirrors'
/// memory stays out of the peak RSS.
void verify(const RoundOutcome& round, RunStats& stats) {
  std::unique_ptr<rtseed::shard::ShardWorker> mirror[kShards];
  for (auto& m : mirror) {
    auto worker = rtseed::shard::ShardWorker::create(rtseed::shard::WorkerConfig{});
    if (!worker.has_value()) {
      stats.errors.push_back("mirror: " + worker.status().to_string());
      return;
    }
    m = std::move(*worker);
  }
  EventSource source(round.stream_seed, rtseed::shard::WorkerConfig{}.book);
  u64 seq[kShards] = {};
  u64 total = round.refused.size();
  for (int s = 0; s < kShards; ++s) total += round.posted[s];
  std::size_t next_refused = 0;
  rtseed::lob::FlowEvent event;
  for (u64 i = 0; i < total; ++i) {
    const u32 symbol = source.next(&event);
    if (next_refused < round.refused.size() && round.refused[next_refused] == i) {
      ++next_refused;
      continue;
    }
    const int shard = rtseed::sched::home_shard(symbol, kShards);
    rtseed::shard::ShardMessage msg;
    msg.kind = rtseed::shard::MessageKind::kFlow;
    msg.symbol = symbol;
    msg.seq = ++seq[shard];
    msg.body.flow.price_ticks = event.price;
    msg.body.flow.qty = event.qty;
    msg.body.flow.flow_kind = static_cast<u32>(event.kind);
    msg.body.flow.side = static_cast<u32>(event.side);
    msg.body.flow.pick = event.pick;
    mirror[shard]->apply(msg);
  }
  for (int s = 0; s < kShards; ++s) {
    const std::string shard = "shard " + std::to_string(s);
    if (seq[s] != round.posted[s]) {
      stats.errors.push_back("mirror routed " + std::to_string(seq[s]) + " events to " +
                             shard + ", " + std::to_string(round.posted[s]) +
                             " were posted");
    } else if (round.digest[s] != mirror[s]->book_digest()) {
      stats.errors.push_back(shard + " book digest differs from the mirror");
    } else if (round.position[s] != mirror[s]->position()) {
      stats.errors.push_back(shard + " position differs from the mirror");
    }
  }
}

RunStats run_once(const Options& options, bool traced, double seconds, SpanLog* spans) {
  RunStats stats;
  stats.spans = spans;
  if (spans != nullptr) {
    stats.n_event = spans->intern("flow.event");
    stats.n_wait = spans->intern("bench.generator_wait");
    stats.n_post = spans->intern("shard.post");
    stats.n_apply = spans->intern("shard.apply");
  }
  const int rounds = std::max(1, static_cast<int>(seconds) / kRoundSeconds);
  const int paced_seconds = std::max(1, static_cast<int>(seconds) / rounds - 1);
  // One empty window between rounds keeps their windows apart.
  stats.apply_windows = Windows(rounds * (paced_seconds + 1) + 1);

  // Extra set-ups (torn down at once) so setup_s is a median of kSetups.
  const int extra = traced ? 0 : std::max(0, kSetups - rounds);
  for (int i = 0; i < extra; ++i) {
    Deployment d = set_up(options, i, &stats.errors);
    if (d.runtime == nullptr) return stats;
    stats.setup_s.push_back(d.setup_s);
  }
  std::vector<RoundOutcome> outcomes;
  for (int r = 0; r < rounds; ++r) {
    Deployment d = set_up(options, extra + r, &stats.errors);
    if (d.runtime == nullptr) return stats;
    stats.setup_s.push_back(d.setup_s);

    RoundOutcome& round = outcomes.emplace_back();
    round.stream_seed = derive_seed(options.seed, 500 + static_cast<u64>(r));
    ProcessShardRuntime& rt = *d.runtime;
    Placement placement(rt);
    measure(rt, round.stream_seed, traced, paced_seconds,
            static_cast<Nanos>(r) * (paced_seconds + 1) * Windows::kWidth, stats,
            &round.refused, round.posted);
    if (!stats.errors.empty()) return stats;

    // Before stopping: the children's memory, CPU and journal footprint.
    double rss = peak_rss_mib();
    for (int s = 0; s < kShards; ++s) {
      const int pid = static_cast<int>(rt.control(s)->pid.load(std::memory_order_acquire));
      rss += peak_rss_mib(pid);
      double user_s = 0.0, sys_s = 0.0;
      proc_cpu_seconds(pid, &user_s, &sys_s);
      stats.child_user_s[s] += user_s;
      stats.child_sys_s[s] += sys_s;
      stats.applied[s] += rt.control(s)->deltas_applied.load(std::memory_order_acquire);
      stats.journal_bytes +=
          file_bytes(d.dir->path() + "/shard-" + std::to_string(s) + ".journal");
    }
    stats.peak_rss_mib = std::max(stats.peak_rss_mib, rss);
    const auto supervisor = rt.supervisor()->stats();
    stats.stalls += supervisor.stalls_detected;
    stats.probes += supervisor.probes;
    if (!read_outcome(rt, round, stats)) return stats;
  }
  for (const RoundOutcome& round : outcomes) verify(round, stats);
  return stats;
}

}  // namespace

Result run_flow_stream(const Options& options) {
  Result result;
  const double untraced_s = options.trace ? options.seconds / 2.0 : options.seconds;
  RunStats plain = run_once(options, false, untraced_s, nullptr);
  RunStats traced;
  // Spans of every kSpanEvery-th paced event: four per event.
  SpanLog spans(options.trace ? static_cast<std::size_t>(options.seconds * kPacedRate /
                                                         kSpanEvery * 4)
                              : 0);
  if (options.trace) traced = run_once(options, true, options.seconds / 2.0, &spans);

  for (const auto& e : plain.errors) result.fail(e);
  for (const auto& e : traced.errors) result.fail(e);
  if (plain.apply.count() == 0 || plain.burst_eps.empty()) {
    result.fail("no events measured");
  }

  result.attempted = plain.paced_events + plain.saturated_events;
  result.failed = plain.paced_refused;
  const double apply_us = plain.apply_windows.p50_us();
  const double eps = interquartile_mean(plain.burst_eps);

  result.set("setup_s", median(plain.setup_s), "s");
  result.set("peak_rss_mb", plain.peak_rss_mib, "MB");
  result.set("ok_ratio",
             1.0 - static_cast<double>(result.failed) /
                       static_cast<double>(std::max<u64>(1, result.attempted)),
             "ratio");
  result.set("latency_p50_us", apply_us, "us");
  result.set("work_per_s", eps, "1/s");

  result.diag("apply_p50_us", apply_us, "us");
  result.diag("apply_eps", eps, "1/s");
  result.diag("windows", plain.apply_windows.complete_windows(), "count");
  result.diag("failed_ratio",
              static_cast<double>(result.failed) /
                  static_cast<double>(std::max<u64>(1, result.attempted)),
              "ratio");
  plain.apply.report(result, "apply");
  plain.lateness.report(result, "generator_lateness");
  result.diag("paced_events", static_cast<double>(plain.paced_events), "count");
  result.diag("saturated_events", static_cast<double>(plain.saturated_events), "count");
  result.diag("bursts", static_cast<double>(plain.burst_eps.size()), "count");

  if (!options.trace) return result;

  const RunStats& t = traced;
  const double paced = std::max<double>(1.0, static_cast<double>(t.paced_events));
  const double saturated = std::max<double>(1.0, static_cast<double>(t.saturated_events));
  const double applied = static_cast<double>(t.applied[0] + t.applied[1]);
  result.set("rt.wakes_per_event", static_cast<double>(t.paced_wakes) / paced, "count");
  result.set("rt.wakes_per_event_saturated",
             static_cast<double>(t.saturated_wakes) / saturated, "count");
  result.set("shard.post_ns", t.post.percentile_ns(0.5), "ns");
  result.set("shard.ingress_depth_mean",
             t.depth_samples > 0 ? t.depth_sum / static_cast<double>(t.depth_samples) : 0.0,
             "count");
  result.set("shard.ingress_depth_max", static_cast<double>(t.depth_max), "count");
  result.set("shard.refused_posts", static_cast<double>(t.saturated_retries), "count");
  result.set("shard.apply_skew",
             applied > 0 ? std::abs(static_cast<double>(t.applied[0]) -
                                    static_cast<double>(t.applied[1])) /
                               applied
                         : 0.0,
             "ratio");
  for (int s = 0; s < kShards; ++s) {
    const std::string prefix = "shard.child" + std::to_string(s);
    result.set(prefix + "_user_s", t.child_user_s[s], "s");
    result.set(prefix + "_sys_s", t.child_sys_s[s], "s");
  }
  result.set("shard.journal_bytes_per_event",
             applied > 0 ? static_cast<double>(t.journal_bytes) / applied : 0.0, "B");
  result.set("fault.stalls", static_cast<double>(t.stalls), "count");
  result.set("fault.probes", static_cast<double>(t.probes), "count");
  result.set("obs.trace_overhead_pct",
             apply_us > 0 ? 100.0 * (t.apply_windows.p50_us() / apply_us - 1.0)
                          : 0.0,
             "%");
  t.post.report(result, "shard.post");
  t.apply.report(result, "traced.apply");
  result.diag("untracked_events", static_cast<double>(plain.untracked), "count");
  result.set("obs.spans_dropped", static_cast<double>(spans.dropped()), "count");
  if (!options.out_dir.empty()) {
    spans.write_jsonl(options.out_dir + "/flow_stream-seed" +
                      std::to_string(options.seed) + ".spans.jsonl");
  }
  result.diag("traced.apply_eps", interquartile_mean(t.burst_eps), "1/s");
  return result;
}

}  // namespace perfbench
