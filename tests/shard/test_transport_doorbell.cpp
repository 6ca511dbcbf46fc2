// The doorbell side of ShardTransport::wait_ingress, driven directly on an
// in-process transport with doorbell = true: the poll before the park,
// the park/wake handshake with the producer, and the timed-out wait.
// (The stress case runs under the tsan CI entry.)  ProcessShardChildPoll
// checks when a forked shard child asks for the poll.
#include <gtest/gtest.h>
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "lob/flow.hpp"
#include "rt/cpuset.hpp"
#include "rt/futex.hpp"
#include "shard/process_runtime.hpp"
#include "shard/transport.hpp"

namespace rtseed::shard {
namespace {

using common::CpuId;
using common::micros;
using common::millis;
using common::monotonic_now;
using common::seconds;

std::unique_ptr<ShardTransport> doorbell_transport(usize ring_capacity = 16) {
  TransportOptions options;
  options.doorbell = true;
  options.pool_capacity = 64;
  options.ring_capacity = ring_capacity;
  auto transport = ShardTransport::create(1, options);
  EXPECT_TRUE(transport.has_value()) << transport.status().to_string();
  return transport.has_value() ? std::move(*transport) : nullptr;
}

bool post_seq(ShardTransport& t, u64 seq) {
  ShardMessage* msg = t.acquire();
  if (msg == nullptr) return false;
  msg->kind = MessageKind::kFlow;
  msg->seq = seq;
  return t.post(0, msg);
}

TEST(ShardTransportDoorbell, PostAfterParkWakesWithOneWakeCall) {
  auto t = doorbell_transport();
  ASSERT_NE(t, nullptr);
  const rt::WakeStats before = rt::wake_stats();
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    woke.store(t->wait_ingress(0, monotonic_now() + seconds(10)));
  });
  // A new kernel sleep means the consumer set its parked flag, re-checked
  // the ring and is committed to the wait, so the flag stays set until
  // the doorbell rings.
  while (rt::wake_stats().wait_sleeps == before.wait_sleeps) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(post_seq(*t, 1));
  // Posts that land before the woken consumer runs ring nothing more.
  ASSERT_TRUE(post_seq(*t, 2));
  consumer.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(rt::wake_stats().wake_calls - before.wake_calls, 1u);
  for (u64 seq = 1; seq <= 2; ++seq) {
    ShardMessage* msg = t->poll(0);
    ASSERT_NE(msg, nullptr);
    EXPECT_EQ(msg->seq, seq);
    t->release(msg);
  }
}

/// Splits the calling thread's mask: its last CPU for a consumer, the
/// rest for the producer.  False when the mask has fewer than two CPUs.
/// The producer keeps every other CPU, so a real-time thread pinned to
/// one of them (another test process's, say) cannot hold it off.
bool split_cpus(rt::CpuSet* consumer, rt::CpuSet* producer) {
  auto mask = rt::get_current_affinity();
  if (!mask.has_value() || mask->count() < 2) return false;
  *producer = *mask;
  for (CpuId c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (mask->contains(c)) {
      *consumer = rt::CpuSet::single(c);
      producer->remove(c);
      return true;
    }
  }
  return false;
}

/// Pins the calling thread to `cpus` for its lifetime; `pinned()` is
/// false when the pin was refused.
class ScopedPin {
 public:
  explicit ScopedPin(const rt::CpuSet& cpus)
      : saved_(rt::get_current_affinity()) {
    pinned_ = saved_.has_value() && rt::set_current_affinity(cpus).is_ok();
  }
  ~ScopedPin() {
    if (pinned_) (void)rt::set_current_affinity(*saved_);
  }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;
  bool pinned() const { return pinned_; }

 private:
  common::Expected<rt::CpuSet> saved_;
  bool pinned_ = false;
};

TEST(ShardTransportDoorbell, PostInsideSpinWindowTakesNoWake) {
  // Producer and consumer on CPUs of their own, the placement in which
  // the shard child polls: on a shared CPU the spin only holds the
  // producer off.
  rt::CpuSet consumer_cpu, producer_cpus;
  if (rt::worker_spin_iters() == 0 ||
      !split_cpus(&consumer_cpu, &producer_cpus)) {
    GTEST_SKIP() << "needs two CPUs: the consumer parks without polling";
  }
  constexpr u64 kTrials = 200;
  auto t = doorbell_transport();
  ASSERT_NE(t, nullptr);
  const ScopedPin pin(producer_cpus);
  ASSERT_TRUE(pin.pinned());
  const rt::WakeStats before = rt::wake_stats();
  std::atomic<u64> consumed{0};
  std::atomic<bool> failed{false};
  std::thread consumer([&] {
    const ScopedPin consumer_pin(consumer_cpu);
    if (!consumer_pin.pinned()) {
      failed.store(true);
      return;
    }
    for (u64 i = 0; i < kTrials; ++i) {
      if (!t->wait_ingress(0, monotonic_now() + seconds(10),
                           rt::worker_spin_iters())) {
        failed.store(true);
        return;
      }
      ShardMessage* msg = t->poll(0);
      if (msg == nullptr || msg->seq != i + 1) failed.store(true);
      if (msg != nullptr) t->release(msg);
      consumed.store(i + 1, std::memory_order_release);
    }
  });
  // Each post comes 2 us after the previous consumption: long after a
  // consumer that parks at once has set its parked flag, well inside the
  // spin (2048 PAUSEs).  A post landed after the spin only when this
  // thread was preempted for longer.
  for (u64 i = 0; i < kTrials && !failed.load(); ++i) {
    while (consumed.load(std::memory_order_acquire) != i && !failed.load()) {
    }
    const Nanos post_at = monotonic_now() + micros(2);
    while (monotonic_now() < post_at) {
    }
    if (!post_seq(*t, i + 1)) {
      ADD_FAILURE() << "post " << i + 1 << " refused";
      failed.store(true);
    }
  }
  consumer.join();
  ASSERT_FALSE(failed.load());
  EXPECT_LE(rt::wake_stats().wake_calls - before.wake_calls, kTrials / 4);
}

TEST(ShardTransportDoorbell, TimedOutWaitReturnsFalseAfterOnePoll) {
  auto t = doorbell_transport();
  ASSERT_NE(t, nullptr);
  const rt::WakeStats before = rt::wake_stats();
  const Nanos start = monotonic_now();
  EXPECT_FALSE(t->wait_ingress(0, start + millis(2), rt::worker_spin_iters()));
  EXPECT_GE(monotonic_now(), start + millis(2));
  // The poll ran once, then the wait parked until the deadline.
  const rt::WakeStats after = rt::wake_stats();
  EXPECT_GE(after.wait_sleeps - before.wait_sleeps, 1u);
  EXPECT_EQ(after.wake_calls, before.wake_calls);

  // A queued message ends any wait at once, polling or not.
  ASSERT_TRUE(post_seq(*t, 1));
  EXPECT_EQ(rt::wake_stats().wake_calls, before.wake_calls);  // not parked
  EXPECT_TRUE(t->wait_ingress(0, monotonic_now() + seconds(10)));
  EXPECT_TRUE(t->wait_ingress(0, monotonic_now() + seconds(10),
                              rt::worker_spin_iters()));
  EXPECT_EQ(rt::wake_stats().wait_sleeps, after.wait_sleeps);
  t->release(t->poll(0));
  EXPECT_EQ(t->in_flight_approx(), 0u);
}

// The worker-process consumer shape (peek → commit → release_n, wait
// when dry) against a producer whose gaps range from none to several
// spin windows and the odd millisecond: every message arrives once, in
// order, and no wake is ever lost (a lost one shows up as a 10 s hang).
TEST(ShardTransportDoorbell, ParkPostStress) {
  constexpr u64 kMessages = 20000;
  auto t = doorbell_transport(/*ring_capacity=*/32);
  ASSERT_NE(t, nullptr);
  const rt::WakeStats before = rt::wake_stats();
  std::atomic<bool> failed{false};
  std::atomic<u64> waits{0};
  std::thread consumer([&] {
    u64 expect = 1;
    bool served = false;
    const Nanos give_up = monotonic_now() + seconds(60);
    while (expect <= kMessages && !failed.load()) {
      ShardMessage* batch[16];
      const usize n = t->peek_ingress_n(0, batch);
      if (n == 0) {
        const int spin = served ? rt::worker_spin_iters() : 0;
        served = false;
        waits.fetch_add(1, std::memory_order_relaxed);
        if (!t->wait_ingress(0, monotonic_now() + seconds(10), spin) ||
            monotonic_now() > give_up) {
          failed.store(true);
        }
        continue;
      }
      served = true;
      for (usize i = 0; i < n; ++i) {
        if (batch[i]->seq != expect++) failed.store(true);
      }
      t->commit_ingress_n(0, n);
      t->release_n(batch, n);
    }
  });

  u64 state = 0x5eed;
  for (u64 seq = 1; seq <= kMessages && !failed.load();) {
    const u64 r = common::splitmix64(state);
    if (r % 512 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } else if (r % 8 == 0) {
      const Nanos until =
          monotonic_now() + micros(static_cast<common::i64>(r % 64));
      while (monotonic_now() < until) {
      }
    }
    if (post_seq(*t, seq)) ++seq;  // full ring or pool: retry
  }
  consumer.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(t->in_flight_approx(), 0u);
  // Each wait parks at most once (a 10 s deadline never expires), and one
  // park is answered by at most one wake.
  EXPECT_LE(rt::wake_stats().wake_calls - before.wake_calls, waits.load());
}

// A forked shard child polls its ring before it parks only on the first
// wait after a served batch, and only when no CPU of its mask is in the
// parent main thread's (DESIGN.md §14.2).  Seen from the poster: a post
// that finds the child polling rings no doorbell, one that finds it
// parked rings exactly one.  Every post here comes 5 us after the child
// finished its previous loop step: inside a poll, long after a park.
TEST(ProcessShardChildPoll, PollsAfterABatchOnlyOnACpuOfItsOwn) {
  rt::CpuSet child_cpu, parent_cpus;
  if (rt::worker_spin_iters() == 0 || !split_cpus(&child_cpu, &parent_cpus)) {
    GTEST_SKIP() << "needs two CPUs: the child parks without polling";
  }
  char templ[] = "/tmp/rtseed_childpoll_XXXXXX";
  ASSERT_NE(::mkdtemp(templ), nullptr);
  const std::string dir = templ;
  ProcessRuntimeOptions options;
  options.num_shards = 1;
  options.worker.book.num_levels = 256;
  options.worker.book.max_orders = 512;
  options.worker.risk.max_order_qty = 0;
  options.journal_dir = dir;
  options.drain_slice = millis(20);
  options.start_supervisor = false;
  auto runtime = ProcessShardRuntime::create(options);
  ASSERT_TRUE(runtime.has_value()) << runtime.status().to_string();
  ProcessShardRuntime& shards = **runtime;
  ASSERT_TRUE(shards.start().is_ok());
  const ShardControl* control = shards.control(0);

  lob::FlowGenerator gen(7, options.worker.book);
  u64 posted = 0;
  // Posts one event 5 us after `ready()` holds, then spins until the
  // child has applied it.  Returns the wake calls the post made.
  const auto post_when = [&](const auto& ready) -> u64 {
    while (!ready()) {
    }
    const Nanos post_at = monotonic_now() + micros(5);
    while (monotonic_now() < post_at) {
    }
    const u64 wakes = rt::wake_stats().wake_calls;
    if (!shards.post_flow(0, gen.next())) {
      ADD_FAILURE() << "post refused";
      return 0;
    }
    const u64 took = rt::wake_stats().wake_calls - wakes;
    ++posted;
    const Nanos give_up = monotonic_now() + seconds(10);
    while (control->applied_seq.load(std::memory_order_acquire) < posted &&
           monotonic_now() < give_up) {
    }
    return took;
  };
  const auto now_ready = [] { return true; };
  constexpr u64 kPosts = 100;

  // Unpinned, the child shares every CPU with this (the main) thread:
  // after each batch it parks at once, so each post wakes it.
  u64 shared_wakes = 0;
  for (u64 i = 0; i < kPosts; ++i) shared_wakes += post_when(now_ready);

  // Pinned apart (the child reads the pins at its next timed-out wait),
  // it polls after each batch, and the next post finds it polling.
  const ScopedPin pin(parent_cpus);
  ASSERT_TRUE(pin.pinned());
  ASSERT_EQ(::sched_setaffinity(
                static_cast<pid_t>(control->pid.load(std::memory_order_acquire)),
                sizeof(cpu_set_t), child_cpu.native()),
            0);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  u64 apart_wakes = 0;
  for (u64 i = 0; i < kPosts; ++i) apart_wakes += post_when(now_ready);

  // A wait that timed out is followed by a park, not a poll: each post
  // lands just after an idle loop's heartbeat.
  constexpr u64 kIdleTrials = 10;
  u64 idle_wakes = 0;
  for (u64 i = 0; i < kIdleTrials; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));  // poll over
    const u64 beat = control->heartbeat.load(std::memory_order_relaxed);
    idle_wakes += post_when([&] {
      return control->heartbeat.load(std::memory_order_relaxed) != beat;
    });
  }
  EXPECT_EQ(control->applied_seq.load(std::memory_order_acquire), posted);
  shards.stop();
  ::unlink((dir + "/shard-0.journal").c_str());
  ::rmdir(dir.c_str());

  EXPECT_GE(shared_wakes, kPosts * 3 / 4);
  EXPECT_LE(apart_wakes, kPosts / 4);
  EXPECT_GE(idle_wakes, kIdleTrials * 3 / 4);
}

}  // namespace
}  // namespace rtseed::shard
