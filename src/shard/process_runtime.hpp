// ProcessShardRuntime — crash-isolated shard WORKER PROCESSES over the
// shm-resident transport (DESIGN.md §14).
//
// The in-process ShardedRuntime dies with its worst shard: one corrupted
// book, one wild write, one abort() takes the whole deployment down.
// This runtime forks each shard into its own process instead.  Parent
// and children share exactly one mapping — the transport's memfd segment
// (rings, message pool, per-shard ShardControl heartbeat lines) — so a
// shard crash cannot corrupt anything another shard reads; its private
// book state is rebuilt from its write-ahead StateJournal on respawn.
//
// The lifecycle, per shard:
//
//   spawn     parent builds the ShardWorker (book, risk, journal fd,
//             scratch buffers — every allocation), THEN forks; the child
//             runs an allocation-free serve loop (recover → drain).
//   monitor   the child bumps control->heartbeat every loop; the
//             fault::ProcessSupervisor escalates silence through
//             probe → SIGTERM → SIGKILL, and waitpid-reaps any death.
//   respawn   the parent repairs a torn segment generation if the child
//             died mid-guarded-write, re-forks, and the new child
//             replays its journal: latest snapshot + deltas, then skips
//             already-journaled ring entries by seq (exactly-once).
//   failover  while a shard is down, shard_of() optionally redirects its
//             symbols to the next live shard (restricted migration at
//             the routing layer; sched::plan_failover is the admission-
//             level counterpart).  Every outage is recorded as a
//             FailoverWindow for obs::attribute_jobs' shard-failover
//             root cause.
//
// Environment knobs (when the corresponding option is unset):
//   RTSEED_JOURNAL_DIR   directory for per-shard journal files
#pragma once

#include <sys/types.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/time.hpp"
#include "fault/process_supervisor.hpp"
#include "shard/router.hpp"
#include "shard/transport.hpp"
#include "shard/worker.hpp"

namespace rtseed::lob {
struct FlowEvent;
}  // namespace rtseed::lob

namespace rtseed::shard {

using common::Nanos;

/// One shard outage, in CLOCK_MONOTONIC: from death detection (reap) to
/// the respawned worker reporting kRunning.  end == 0 while still open.
struct FailoverWindow {
  int shard = -1;
  Nanos begin = 0;
  Nanos end = 0;
};

struct ProcessRuntimeOptions {
  int num_shards = 2;
  /// Transport shape.  doorbell is forced on (an idle child parks on it,
  /// after a bounded poll when no CPU of its mask is in the parent main
  /// thread's); epoch defaults to the parent pid so a stale fd from a
  /// previous incarnation cannot alias.
  TransportOptions transport;
  /// Per-shard worker template; journal_path is derived per shard as
  /// <journal_dir>/shard-<i>.journal (an explicit path is an error —
  /// shards must not share a journal).
  WorkerConfig worker;
  /// Directory for journals; "" reads RTSEED_JOURNAL_DIR, and "" there
  /// too runs every shard UNJOURNALED (crash loses state — loud in logs).
  std::string journal_dir;
  /// How long a child parks on the doorbell per empty iteration.
  Nanos drain_slice = common::millis(1);
  /// Publish the (O(book)) digest every this many applied deltas; it is
  /// also published on request and at clean exit.
  u64 digest_publish_every = 4096;
  /// While a shard is down, redirect its symbols to the next live shard.
  /// Off by default: a short outage is better served by letting the
  /// dead shard's ingress ring buffer (the respawned worker drains it)
  /// than by splitting one symbol's stream across two books.
  bool failover_redirect = false;
  fault::ProcessSupervisorConfig supervisor;
  /// Start the supervisor thread in start() (tests drive scan_once()).
  bool start_supervisor = true;
};

class ProcessShardRuntime : public ShardRouter,
                            public fault::SupervisedProcessGroup {
 public:
  static common::Expected<std::unique_ptr<ProcessShardRuntime>> create(
      ProcessRuntimeOptions options);
  ~ProcessShardRuntime() override;

  ProcessShardRuntime(const ProcessShardRuntime&) = delete;
  ProcessShardRuntime& operator=(const ProcessShardRuntime&) = delete;

  /// Forks every shard and (optionally) starts the supervisor.
  common::Status start();
  /// SIGTERMs every child (clean drain + final snapshot), reaps them,
  /// stops the supervisor.  Idempotent.
  void stop();

  int num_shards() const override { return options_.num_shards; }
  bool started() const { return started_; }

  // ---- ShardRouter -------------------------------------------------------
  /// Home shard by hash; while that shard is down and failover_redirect
  /// is on, the next live shard (stable scan order, so every producer
  /// agrees without coordination).
  int shard_of(u32 symbol) const override;
  ShardTransport* transport() override { return transport_.get(); }

  /// Routes one order-flow event: assigns the destination shard's next
  /// seq and posts a kFlow message.  False when dropped (pool/ring full).
  bool post_flow(u32 symbol, const lob::FlowEvent& event);

  // ---- state queries -----------------------------------------------------
  ShardControl* control(int shard) { return transport_->control(shard); }
  bool shard_alive(int shard) const {
    return slots_[static_cast<usize>(shard)].alive.load(
        std::memory_order_acquire);
  }
  /// Blocks (bounded) until `shard` has applied every seq posted to it so
  /// far.  False on timeout or while the shard is down past the deadline.
  bool quiesce(int shard, Nanos timeout);
  /// Digest handshake: asks the live worker for a fresh digest and waits
  /// for the echo.  O(book) in the child, bounded wait here.
  common::Expected<u64> request_digest(int shard, Nanos timeout);

  /// Every outage so far (closed and open), in detection order.
  std::vector<FailoverWindow> failover_windows() const;
  /// Torn segment generations repaired across respawns.
  u64 torn_repairs() const;

  fault::ProcessSupervisor* supervisor() { return supervisor_.get(); }

  // ---- fault::SupervisedProcessGroup -------------------------------------
  int process_count() const override { return options_.num_shards; }
  fault::ProcessHealth process_health(int index) const override;
  bool signal_process(int index, int signo) override;
  bool reap_process(int index) override;
  bool respawn_process(int index) override;

 private:
  struct Slot {
    std::atomic<pid_t> pid{0};
    std::atomic<bool> alive{false};
    std::atomic<u64> next_seq{0};  ///< producer-side per-shard seq counter
    int open_window = -1;          ///< index into windows_ while down
  };

  explicit ProcessShardRuntime(ProcessRuntimeOptions options);

  common::Status spawn(int shard);
  [[noreturn]] void child_main(int shard, ShardWorker* worker);
  std::string journal_path(int shard) const;

  ProcessRuntimeOptions options_;
  std::unique_ptr<ShardTransport> transport_;
  std::vector<Slot> slots_;
  std::unique_ptr<fault::ProcessSupervisor> supervisor_;
  bool started_ = false;

  mutable std::mutex windows_mutex_;
  std::vector<FailoverWindow> windows_;
};

}  // namespace rtseed::shard
