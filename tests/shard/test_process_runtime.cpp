// ProcessShardRuntime end-to-end: forked shard workers over the shm
// transport, killed mid-stream, must journal-recover to a state
// BIT-IDENTICAL to an in-process mirror that applied the same posts.
// The mirror only applies events post_flow() accepted, with the same
// per-shard seq assignment, so dropped posts never skew the reference.
#include "shard/process_runtime.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "fault/injector.hpp"
#include "lob/flow.hpp"

namespace rtseed::shard {
namespace {

using common::micros;
using common::millis;
using common::monotonic_now;
using common::Nanos;
using common::seconds;

constexpr u32 kSymbols = 16;

WorkerConfig small_worker() {
  WorkerConfig config;
  config.book.min_tick = 1;
  config.book.num_levels = 256;
  config.book.max_orders = 512;
  config.risk.max_order_qty = 0;
  config.snapshot_every = 64;
  return config;
}

class ProcessRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char templ[] = "/tmp/rtseed_procrt_XXXXXX";
    ASSERT_NE(mkdtemp(templ), nullptr);
    dir_ = templ;
  }
  void TearDown() override {
    for (int s = 0; s < 8; ++s) {
      ::unlink((dir_ + "/shard-" + std::to_string(s) + ".journal").c_str());
    }
    ::rmdir(dir_.c_str());
  }

  ProcessRuntimeOptions small_options(int num_shards) const {
    ProcessRuntimeOptions options;
    options.num_shards = num_shards;
    options.worker = small_worker();
    options.journal_dir = dir_;
    options.drain_slice = micros(200);
    options.digest_publish_every = 128;
    options.start_supervisor = false;
    return options;
  }

  std::string dir_;
};

/// In-process reference: one ShardWorker per shard, fed exactly the
/// messages the runtime accepted, with the runtime's seq numbering.
class MirrorFleet {
 public:
  MirrorFleet(int num_shards, const WorkerConfig& config) {
    for (int s = 0; s < num_shards; ++s) {
      auto worker = ShardWorker::create(config);
      EXPECT_TRUE(worker.has_value());
      workers_.push_back(std::move(*worker));
      next_seq_.push_back(0);
    }
  }

  /// Routes one event through `runtime` and mirrors it on acceptance.
  bool post(ProcessShardRuntime& runtime, u32 symbol,
            const lob::FlowEvent& event) {
    const int shard = runtime.shard_of(symbol);
    if (!runtime.post_flow(symbol, event)) return false;
    ShardMessage msg{};
    msg.kind = MessageKind::kFlow;
    msg.symbol = symbol;
    msg.seq = ++next_seq_[static_cast<usize>(shard)];
    msg.body.flow.price_ticks = event.price;
    msg.body.flow.qty = event.qty;
    msg.body.flow.flow_kind = static_cast<u32>(event.kind);
    msg.body.flow.side = static_cast<u32>(event.side);
    msg.body.flow.pick = event.pick;
    workers_[static_cast<usize>(shard)]->apply(msg);
    return true;
  }

  ShardWorker& worker(int shard) {
    return *workers_[static_cast<usize>(shard)];
  }

 private:
  std::vector<std::unique_ptr<ShardWorker>> workers_;
  std::vector<u64> next_seq_;
};

/// Posts `count` generator events round-robin over kSymbols symbols.
void drive(ProcessShardRuntime& runtime, MirrorFleet& mirror,
           lob::FlowGenerator& gen, int count) {
  u32 symbol = 0;
  for (int i = 0; i < count; ++i) {
    mirror.post(runtime, symbol, gen.next());
    symbol = (symbol + 1) % kSymbols;
  }
}

bool wait_for(const std::function<bool()>& done, Nanos timeout) {
  const Nanos deadline = monotonic_now() + timeout;
  while (monotonic_now() < deadline) {
    if (done()) return true;
    ::usleep(500);
  }
  return done();
}

TEST_F(ProcessRuntimeTest, CreateRejectsDegenerateOptions) {
  ProcessRuntimeOptions bad = small_options(0);
  EXPECT_FALSE(ProcessShardRuntime::create(bad).has_value());
  ProcessRuntimeOptions shared_journal = small_options(2);
  shared_journal.worker.journal_path = dir_ + "/shared.journal";
  EXPECT_FALSE(ProcessShardRuntime::create(shared_journal).has_value());
}

TEST_F(ProcessRuntimeTest, CleanStopDrainsSnapshotsAndExits) {
  auto runtime = ProcessShardRuntime::create(small_options(1));
  ASSERT_TRUE(runtime.has_value()) << runtime.status().to_string();
  auto& rt = **runtime;
  ASSERT_TRUE(rt.start().is_ok());

  MirrorFleet mirror(1, small_options(1).worker);
  lob::FlowGenerator gen(21, small_options(1).worker.book);
  drive(rt, mirror, gen, 300);
  ASSERT_TRUE(rt.quiesce(0, seconds(10)));
  rt.stop();

  const ShardControl* control = rt.control(0);
  EXPECT_EQ(control->state.load(), static_cast<u32>(ShardState::kExited));
  EXPECT_EQ(control->applied_seq.load(), 300u);
  EXPECT_EQ(control->recoveries.load(), 1u);  // the initial replay only
  EXPECT_EQ(control->book_digest.load(), mirror.worker(0).book_digest());
  EXPECT_TRUE(rt.failover_windows().empty());

  // A second incarnation over the same journal resumes where the clean
  // exit left off — the final snapshot covered everything.
  auto again = ProcessShardRuntime::create(small_options(1));
  ASSERT_TRUE(again.has_value());
  ASSERT_TRUE((*again)->start().is_ok());
  ASSERT_TRUE(wait_for(
      [&] {
        return (*again)->control(0)->applied_seq.load() >= 300u;
      },
      seconds(10)));
  auto digest = (*again)->request_digest(0, seconds(5));
  ASSERT_TRUE(digest.has_value());
  EXPECT_EQ(*digest, mirror.worker(0).book_digest());
  (*again)->stop();
}

// A child consumes its ring in group commits of up to kMaxBatch
// messages, so deltas_applied steps over multiples of
// digest_publish_every: the digest is published when the count CROSSES
// one.  Everything is queued before the fork, so the batches end at
// 256, 512, 768 and 1000 — none a multiple of 300.
TEST_F(ProcessRuntimeTest, DigestPublishFiresWhenABatchCrossesTheInterval) {
  static_assert(ShardWorker::kMaxBatch == 256);
  ProcessRuntimeOptions options = small_options(1);
  options.digest_publish_every = 300;
  auto runtime = ProcessShardRuntime::create(options);
  ASSERT_TRUE(runtime.has_value()) << runtime.status().to_string();
  auto& rt = **runtime;

  MirrorFleet mirror(1, options.worker);
  lob::FlowGenerator gen(8, options.worker.book);
  drive(rt, mirror, gen, 1000);
  ASSERT_TRUE(rt.start().is_ok());
  ASSERT_TRUE(rt.quiesce(0, seconds(10)));

  // No digest request: only the crossing publish can carry this value.
  const u64 expected = mirror.worker(0).book_digest();
  EXPECT_TRUE(wait_for(
      [&] { return rt.control(0)->book_digest.load() == expected; },
      seconds(5)));
  rt.stop();
}

// The acceptance test: SIGKILL a shard mid-stream; after reap + respawn
// the recovered process must report the same digest and position as the
// never-killed mirror, and the surviving shard must be untouched.
TEST_F(ProcessRuntimeTest, KillRespawnConvergesToTheReferenceDigest) {
  const ProcessRuntimeOptions options = small_options(2);
  auto runtime = ProcessShardRuntime::create(options);
  ASSERT_TRUE(runtime.has_value()) << runtime.status().to_string();
  auto& rt = **runtime;
  ASSERT_TRUE(rt.start().is_ok());

  MirrorFleet mirror(2, options.worker);
  lob::FlowGenerator gen(42, options.worker.book);
  drive(rt, mirror, gen, 1500);
  ASSERT_TRUE(rt.quiesce(0, seconds(10)));
  ASSERT_TRUE(rt.quiesce(1, seconds(10)));

  // Crash shard 0 the hard way.
  ASSERT_TRUE(rt.signal_process(0, SIGKILL));
  ASSERT_TRUE(wait_for([&] { return rt.reap_process(0); }, seconds(5)));
  EXPECT_FALSE(rt.shard_alive(0));
  ASSERT_EQ(rt.failover_windows().size(), 1u);
  EXPECT_EQ(rt.failover_windows()[0].shard, 0);
  EXPECT_EQ(rt.failover_windows()[0].end, 0);  // still open

  // Keep trading while it is down: shard 0's stream buffers in its ring
  // (redirect off), shard 1 keeps applying.
  drive(rt, mirror, gen, 400);
  ASSERT_TRUE(rt.quiesce(1, seconds(10)));

  ASSERT_TRUE(rt.respawn_process(0));
  ASSERT_TRUE(rt.shard_alive(0));
  ASSERT_EQ(rt.failover_windows().size(), 1u);
  EXPECT_GT(rt.failover_windows()[0].end, rt.failover_windows()[0].begin);

  drive(rt, mirror, gen, 400);
  ASSERT_TRUE(rt.quiesce(0, seconds(10)));
  ASSERT_TRUE(rt.quiesce(1, seconds(10)));

  for (int s = 0; s < 2; ++s) {
    auto digest = rt.request_digest(s, seconds(5));
    ASSERT_TRUE(digest.has_value()) << digest.status().to_string();
    EXPECT_EQ(*digest, mirror.worker(s).book_digest())
        << "shard " << s << " diverged from the mirror";
    EXPECT_EQ(rt.control(s)->position.load(), mirror.worker(s).position());
  }
  // Two journal replays on shard 0 (boot + post-crash), one on shard 1.
  EXPECT_EQ(rt.control(0)->recoveries.load(), 2u);
  EXPECT_EQ(rt.control(1)->recoveries.load(), 1u);
  rt.stop();
}

// Same convergence, but the kill comes from the supervisor's chaos
// injection point and the whole detect → reap → respawn ladder runs
// through scan_once().
TEST_F(ProcessRuntimeTest, ChaosKillThroughTheSupervisorConverges) {
  ProcessRuntimeOptions options = small_options(2);
  options.supervisor.allow_chaos_kill = true;
  auto runtime = ProcessShardRuntime::create(options);
  ASSERT_TRUE(runtime.has_value());
  auto& rt = **runtime;
  ASSERT_TRUE(rt.start().is_ok());

  fault::InjectorConfig chaos;
  chaos.with_rate(fault::InjectPoint::kShardKill, 1.0);
  chaos.max_fires_per_point = 1;
  fault::ScopedInjector injector(chaos);

  MirrorFleet mirror(2, options.worker);
  lob::FlowGenerator gen(7, options.worker.book);
  for (int burst = 0; burst < 20; ++burst) {
    drive(rt, mirror, gen, 100);
    // Each scan may chaos-kill (once), then reaps and respawns.
    rt.supervisor()->scan_once(monotonic_now());
  }
  // The SIGKILLed child may take a while to become reapable; keep
  // scanning until the supervisor has walked reap → respawn.
  ASSERT_TRUE(wait_for(
      [&] {
        rt.supervisor()->scan_once(monotonic_now());
        return rt.supervisor()->stats().respawns >= 1 && rt.shard_alive(0) &&
               rt.shard_alive(1);
      },
      seconds(10)));

  EXPECT_EQ(rt.supervisor()->stats().chaos_kills, 1u);
  EXPECT_GE(rt.supervisor()->stats().respawns, 1u);
  ASSERT_GE(rt.failover_windows().size(), 1u);

  ASSERT_TRUE(rt.quiesce(0, seconds(10)));
  ASSERT_TRUE(rt.quiesce(1, seconds(10)));
  for (int s = 0; s < 2; ++s) {
    auto digest = rt.request_digest(s, seconds(5));
    ASSERT_TRUE(digest.has_value());
    EXPECT_EQ(*digest, mirror.worker(s).book_digest());
  }
  rt.stop();
}

// A child that dies holding the segment's torn-write marker (generation
// left odd) must be repaired by the parent at reap time, and the respawn
// must still converge.
TEST_F(ProcessRuntimeTest, TornSegmentWriteIsRepairedAcrossRespawn) {
  const ProcessRuntimeOptions options = small_options(1);
  auto runtime = ProcessShardRuntime::create(options);
  ASSERT_TRUE(runtime.has_value());
  auto& rt = **runtime;

  MirrorFleet mirror(1, options.worker);
  lob::FlowGenerator gen(11, options.worker.book);
  {
    // The child inherits this config at fork and dies (generation odd)
    // on the first message it peeks.
    fault::InjectorConfig torn;
    torn.with_rate(fault::InjectPoint::kTornShmWrite, 1.0);
    torn.max_fires_per_point = 1;
    fault::ScopedInjector injector(torn);
    ASSERT_TRUE(rt.start().is_ok());
    drive(rt, mirror, gen, 5);
    ASSERT_TRUE(wait_for([&] { return rt.reap_process(0); }, seconds(5)));
  }
  EXPECT_EQ(rt.torn_repairs(), 1u);  // reap repaired the odd generation

  // Respawned (outside the injector scope): nothing was journaled before
  // the crash, and the uncommitted ring entries replay from scratch.
  ASSERT_TRUE(rt.respawn_process(0));
  ASSERT_TRUE(rt.quiesce(0, seconds(10)));
  auto digest = rt.request_digest(0, seconds(5));
  ASSERT_TRUE(digest.has_value());
  EXPECT_EQ(*digest, mirror.worker(0).book_digest());
  rt.stop();
}

// The injected heartbeat stall (a live-but-mute child) must walk the
// supervisor's probe → SIGTERM ladder end-to-end; the SIGTERM lands on
// the child's drain path, so it exits cleanly and respawns.
TEST_F(ProcessRuntimeTest, HeartbeatStallWalksTheLadderEndToEnd) {
  ProcessRuntimeOptions options = small_options(1);
  options.drain_slice = micros(1);  // stall loops burn fast, still >10s
  options.supervisor.stall_grace = millis(5);
  options.supervisor.term_grace = millis(5);
  options.supervisor.kill_grace = millis(5);
  auto runtime = ProcessShardRuntime::create(options);
  ASSERT_TRUE(runtime.has_value());
  auto& rt = **runtime;

  std::optional<fault::ScopedInjector> injector;
  fault::InjectorConfig stall;
  stall.with_rate(fault::InjectPoint::kHeartbeatStall, 1.0);
  stall.max_fires_per_point = 1;
  injector.emplace(stall);
  ASSERT_TRUE(rt.start().is_ok());  // child stalls on its first loop

  const Nanos deadline = monotonic_now() + seconds(20);
  while (monotonic_now() < deadline) {
    rt.supervisor()->scan_once(monotonic_now());
    if (injector.has_value() && rt.supervisor()->stats().terms >= 1) {
      injector.reset();  // the respawned child must not stall again
    }
    if (rt.supervisor()->stats().respawns >= 1 && rt.shard_alive(0)) break;
    ::usleep(2000);
  }

  const auto stats = rt.supervisor()->stats();
  EXPECT_GE(stats.stalls_detected, 1u);
  EXPECT_GE(stats.terms, 1u);
  EXPECT_GE(stats.reaps, 1u);
  EXPECT_GE(stats.respawns, 1u);
  EXPECT_TRUE(rt.shard_alive(0));
  EXPECT_GE(rt.control(0)->recoveries.load(), 2u);
  ASSERT_GE(rt.failover_windows().size(), 1u);
  rt.stop();
}

// Routing-layer restricted migration: with failover_redirect on, a dead
// shard's symbols re-home to the next live shard and return when the
// respawn closes the window.
TEST_F(ProcessRuntimeTest, FailoverRedirectRoutesAroundADeadShard) {
  ProcessRuntimeOptions options = small_options(2);
  options.failover_redirect = true;
  auto runtime = ProcessShardRuntime::create(options);
  ASSERT_TRUE(runtime.has_value());
  auto& rt = **runtime;
  ASSERT_TRUE(rt.start().is_ok());

  // Find one symbol homed on each shard while both are up.
  u32 sym_on_0 = kSymbols, sym_on_1 = kSymbols;
  for (u32 s = 0; s < kSymbols; ++s) {
    if (rt.shard_of(s) == 0 && sym_on_0 == kSymbols) sym_on_0 = s;
    if (rt.shard_of(s) == 1 && sym_on_1 == kSymbols) sym_on_1 = s;
  }
  ASSERT_LT(sym_on_0, kSymbols);
  ASSERT_LT(sym_on_1, kSymbols);

  ASSERT_TRUE(rt.signal_process(0, SIGKILL));
  ASSERT_TRUE(wait_for([&] { return rt.reap_process(0); }, seconds(5)));

  // Down: shard 0's symbols redirect to the live shard; shard 1's stay.
  EXPECT_EQ(rt.shard_of(sym_on_0), 1);
  EXPECT_EQ(rt.shard_of(sym_on_1), 1);
  lob::FlowEvent ev;
  ev.kind = lob::FlowKind::kAddLimit;
  ev.side = lob::Side::kBid;
  ev.price = 100;
  ev.qty = 1;
  EXPECT_TRUE(rt.post_flow(sym_on_0, ev));  // lands on shard 1
  ASSERT_TRUE(rt.quiesce(1, seconds(10)));
  EXPECT_EQ(rt.control(1)->applied_seq.load(), 1u);  // it really landed there

  ASSERT_TRUE(rt.respawn_process(0));
  EXPECT_EQ(rt.shard_of(sym_on_0), 0);  // home again
  const auto windows = rt.failover_windows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].shard, 0);
  EXPECT_GT(windows[0].end, windows[0].begin);
  rt.stop();
}

}  // namespace
}  // namespace rtseed::shard
