#include "shard/process_runtime.hpp"

#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/rt_logger.hpp"
#include "fault/injector.hpp"
#include "lob/flow.hpp"
#include "rt/cpuset.hpp"
#include "rt/futex.hpp"
#include "sched/sharded.hpp"

namespace rtseed::shard {

namespace {

/// SIGTERM just raises this flag; the serve loop drains, snapshots, and
/// exits cleanly at the next iteration (async-signal-safe by content).
volatile std::sig_atomic_t g_child_term = 0;

void child_term_handler(int) { g_child_term = 1; }

/// Loops of silence one kHeartbeatStall fire buys (long enough for the
/// supervisor's full probe → SIGTERM → SIGKILL ladder to engage).
constexpr u64 kStallLoops = 1u << 20;

/// PAUSEs a child polls its ring for before it parks (DESIGN.md §14.2).
/// The poll pays only while the poster runs on a CPU of its own: on a
/// shared CPU it holds the next post off.  The posts come from the
/// parent process, so its main thread's mask stands for the poster's; a
/// child whose mask shares a CPU with it (both unpinned, say) parks at
/// once.
int child_spin_iters() {
  if (rt::worker_spin_iters() == 0) return 0;
  const auto own = rt::get_current_affinity();
  const auto poster = rt::get_affinity(static_cast<int>(::getppid()));
  if (!own.has_value() || !poster.has_value() || own->intersects(*poster)) {
    return 0;
  }
  return rt::worker_spin_iters();
}

}  // namespace

ProcessShardRuntime::ProcessShardRuntime(ProcessRuntimeOptions options)
    : options_(std::move(options)), slots_(static_cast<usize>(
                                        options_.num_shards)) {}

common::Expected<std::unique_ptr<ProcessShardRuntime>>
ProcessShardRuntime::create(ProcessRuntimeOptions options) {
  if (options.num_shards <= 0) {
    return common::invalid_argument("process runtime needs >= 1 shard");
  }
  if (!options.worker.journal_path.empty()) {
    return common::invalid_argument(
        "set journal_dir, not worker.journal_path: shards must not share "
        "one journal file");
  }
  if (options.journal_dir.empty()) {
    const char* env = std::getenv("RTSEED_JOURNAL_DIR");
    if (env != nullptr) options.journal_dir = env;
  }
  if (options.journal_dir.empty()) {
    common::global_logger().warn(
        "process shards run UNJOURNALED (no journal_dir / "
        "RTSEED_JOURNAL_DIR): a crash loses that shard's book state");
  }
  // Children park on the ring doorbell when their ingress runs dry
  // (after a bounded poll where placement allows it, child_spin_iters),
  // so posts must ring it; and a stale fd from a previous incarnation
  // must not alias this one's state.
  options.transport.doorbell = true;
  if (options.transport.epoch <= 1) {
    static std::atomic<u64> g_instance{0};
    options.transport.epoch =
        static_cast<u64>(::getpid()) * 0x100003ULL +
        g_instance.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::unique_ptr<ProcessShardRuntime> runtime(
      new ProcessShardRuntime(std::move(options)));
  auto transport = ShardTransport::create(runtime->options_.num_shards,
                                          runtime->options_.transport);
  if (!transport.has_value()) return transport.status();
  runtime->transport_ = std::move(*transport);
  runtime->supervisor_ = std::make_unique<fault::ProcessSupervisor>(
      runtime->options_.supervisor);
  runtime->supervisor_->watch(runtime.get(), "shard-procs");
  return runtime;
}

ProcessShardRuntime::~ProcessShardRuntime() { stop(); }

std::string ProcessShardRuntime::journal_path(int shard) const {
  if (options_.journal_dir.empty()) return {};
  return options_.journal_dir + "/shard-" + std::to_string(shard) +
         ".journal";
}

common::Status ProcessShardRuntime::start() {
  if (started_) return common::Status::ok();
  for (int s = 0; s < options_.num_shards; ++s) {
    if (auto st = spawn(s); !st) {
      stop();
      return st;
    }
  }
  started_ = true;
  if (options_.start_supervisor) return supervisor_->start();
  return common::Status::ok();
}

common::Status ProcessShardRuntime::spawn(int shard) {
  WorkerConfig config = options_.worker;
  config.journal_path = journal_path(shard);
  // Everything that allocates happens HERE, in the parent; the child
  // inherits the finished worker copy-on-write and never mallocs (other
  // parent threads may hold the heap lock at fork time).
  auto worker = ShardWorker::create(config);
  if (!worker.has_value()) return worker.status();

  ShardControl* control = transport_->control(shard);
  control->state.store(static_cast<u32>(ShardState::kStarting),
                       std::memory_order_release);
  const pid_t pid = ::fork();
  if (pid < 0) {
    control->state.store(static_cast<u32>(ShardState::kDown),
                         std::memory_order_release);
    return common::internal_error("fork failed for shard " +
                                  std::to_string(shard));
  }
  if (pid == 0) {
    child_main(shard, worker->get());  // never returns
  }
  control->pid.store(static_cast<u32>(pid), std::memory_order_release);
  Slot& slot = slots_[static_cast<usize>(shard)];
  slot.pid.store(pid, std::memory_order_release);
  slot.alive.store(true, std::memory_order_release);
  // The parent's copies of the worker (journal fd, book pages) die with
  // `worker` here; the child's copy-on-write image is unaffected.
  return common::Status::ok();
}

void ProcessShardRuntime::child_main(int shard, ShardWorker* worker) {
#if defined(__linux__)
  // An orphaned shard must not outlive its supervisor.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  std::signal(SIGTERM, child_term_handler);
  std::signal(SIGINT, SIG_IGN);

  ShardControl* control = transport_->control(shard);
  control->state.store(static_cast<u32>(ShardState::kRecovering),
                       std::memory_order_release);
  auto recovered = worker->recover();
  if (!recovered.has_value()) {
    control->state.store(static_cast<u32>(ShardState::kDown),
                         std::memory_order_release);
    ::_exit(64);
  }
  control->recoveries.fetch_add(1, std::memory_order_relaxed);
  worker->publish(control, /*with_digest=*/true);
  control->state.store(static_cast<u32>(ShardState::kRunning),
                       std::memory_order_release);

  // One group commit: peek what is queued, journal + apply it as a
  // batch, then consume the ring slots and free the cells with one CAS
  // on the pool's free list (DESIGN.md §14.2).  Returns the number of
  // messages taken off the ring.
  ShardMessage* batch[ShardWorker::kMaxBatch];
  const auto serve_batch = [&]() -> usize {
    const usize n = transport_->peek_ingress_n(shard, batch);
    if (n == 0) return 0;
    for (usize i = 0; i < n; ++i) {
      // Chaos: die mid-guarded-segment-write, generation left ODD — the
      // parent must repair before any reattach succeeds.  Drawn once per
      // message, so a seeded schedule fires at the same message however
      // the stream is batched.
      if (fault::try_fire(fault::InjectPoint::kTornShmWrite)) {
        transport_->segment_header()->generation.fetch_add(
            1, std::memory_order_acq_rel);
        ::_exit(70);
      }
    }
    worker->apply_batch(batch, n);  // WAL inside: journal, then book
    transport_->commit_ingress_n(shard, n);
    transport_->release_n(batch, n);
    return n;
  };

  // Only the first wait after a served batch polls: one that timed out
  // parks again at once, so an idle child does not spin each
  // drain_slice.  An idle child re-reads the placement instead, so pins
  // set after the fork take effect.
  int spin_iters = child_spin_iters();
  bool served = false;
  u64 stall_loops = 0;
  for (;;) {
    if (g_child_term != 0) {
      control->state.store(static_cast<u32>(ShardState::kDraining),
                           std::memory_order_release);
      // Bounded final drain (what was queued at SIGTERM), then one last
      // snapshot: a clean shutdown leaves nothing to replay.
      usize budget = transport_->ingress_size_approx(shard);
      while (budget > 0) {
        const usize n = serve_batch();
        if (n == 0) break;
        budget -= std::min(n, budget);
      }
      (void)worker->snapshot_now();
      worker->publish(control, /*with_digest=*/true);
      control->state.store(static_cast<u32>(ShardState::kExited),
                           std::memory_order_release);
      ::_exit(0);
    }

    // Heartbeat — or injected silence (the supervisor must then walk its
    // probe → SIGTERM → SIGKILL ladder against a live-but-mute child).
    if (stall_loops > 0) {
      --stall_loops;
    } else if (fault::try_fire(fault::InjectPoint::kHeartbeatStall)) {
      stall_loops = kStallLoops;
    } else {
      control->heartbeat.fetch_add(1, std::memory_order_relaxed);
    }

    const u32 digest_req =
        control->digest_request.load(std::memory_order_acquire);
    if (digest_req != control->digest_ack.load(std::memory_order_relaxed)) {
      worker->publish(control, /*with_digest=*/true);
      control->digest_ack.store(digest_req, std::memory_order_release);
    }

    const u64 before = worker->deltas_applied();
    if (serve_batch() > 0) {
      served = true;
      // A batch can step over a multiple of digest_publish_every: publish
      // when the count CROSSES one, not only when it lands on it.
      const u64 every = options_.digest_publish_every;
      const bool digest_now =
          every != 0 && worker->deltas_applied() / every != before / every;
      worker->publish(control, digest_now);
    } else {
      // Parks for at most drain_slice, so the heartbeat and the SIGTERM
      // flag are still seen each slice.
      const int spin = served ? spin_iters : 0;
      served = false;
      if (!transport_->wait_ingress(
              shard, common::monotonic_now() + options_.drain_slice, spin)) {
        spin_iters = child_spin_iters();
      }
    }
  }
}

void ProcessShardRuntime::stop() {
  if (supervisor_) supervisor_->stop();
  for (int s = 0; s < options_.num_shards; ++s) {
    Slot& slot = slots_[static_cast<usize>(s)];
    const pid_t pid = slot.pid.load(std::memory_order_acquire);
    if (pid == 0) continue;
    ::kill(pid, SIGTERM);
  }
  const Nanos deadline = common::monotonic_now() + common::millis(2000);
  for (int s = 0; s < options_.num_shards; ++s) {
    Slot& slot = slots_[static_cast<usize>(s)];
    pid_t pid = slot.pid.load(std::memory_order_acquire);
    if (pid == 0) continue;
    for (;;) {
      int status = 0;
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid || (r < 0 && errno != EINTR)) break;
      if (common::monotonic_now() > deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    slot.pid.store(0, std::memory_order_release);
    slot.alive.store(false, std::memory_order_release);
    transport_->control(s)->pid.store(0, std::memory_order_release);
  }
  // Close any window left open by a final outage.
  const Nanos now = common::monotonic_now();
  std::lock_guard<std::mutex> lock(windows_mutex_);
  for (auto& window : windows_) {
    if (window.end == 0) window.end = now;
  }
  started_ = false;
}

int ProcessShardRuntime::shard_of(u32 symbol) const {
  const int home = sched::home_shard(symbol, options_.num_shards);
  if (!options_.failover_redirect) return home;
  if (slots_[static_cast<usize>(home)].alive.load(std::memory_order_acquire)) {
    return home;
  }
  // Next live shard in stable scan order: every producer computes the
  // same redirect without coordination.
  for (int step = 1; step < options_.num_shards; ++step) {
    const int s = (home + step) % options_.num_shards;
    if (slots_[static_cast<usize>(s)].alive.load(std::memory_order_acquire)) {
      return s;
    }
  }
  return home;
}

bool ProcessShardRuntime::post_flow(u32 symbol, const lob::FlowEvent& event) {
  const int shard = shard_of(symbol);
  ShardMessage* msg = transport_->acquire();
  if (msg == nullptr) return false;
  msg->kind = MessageKind::kFlow;
  msg->symbol = symbol;
  msg->produced_ns = common::monotonic_now();
  msg->body.flow.price_ticks = event.price;
  msg->body.flow.qty = event.qty;
  msg->body.flow.flow_kind = static_cast<u32>(event.kind);
  msg->body.flow.side = static_cast<u32>(event.side);
  msg->body.flow.pick = event.pick;
  Slot& slot = slots_[static_cast<usize>(shard)];
  // SPSC ring ⇒ one producer per shard, so the rollback on a dropped
  // post cannot interleave with another assignment.
  msg->seq = slot.next_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!transport_->post(shard, msg)) {
    slot.next_seq.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

bool ProcessShardRuntime::quiesce(int shard, Nanos timeout) {
  const Nanos deadline = common::monotonic_now() + timeout;
  const ShardControl* control = transport_->control(shard);
  const Slot& slot = slots_[static_cast<usize>(shard)];
  for (;;) {
    const u64 target = slot.next_seq.load(std::memory_order_acquire);
    if (control->applied_seq.load(std::memory_order_acquire) >= target) {
      return true;
    }
    if (common::monotonic_now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

common::Expected<u64> ProcessShardRuntime::request_digest(int shard,
                                                          Nanos timeout) {
  ShardControl* control = transport_->control(shard);
  const u32 request =
      control->digest_request.fetch_add(1, std::memory_order_acq_rel) + 1;
  const Nanos deadline = common::monotonic_now() + timeout;
  while (control->digest_ack.load(std::memory_order_acquire) != request) {
    if (common::monotonic_now() > deadline) {
      return common::internal_error("digest request to shard " +
                                    std::to_string(shard) + " timed out");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return control->book_digest.load(std::memory_order_acquire);
}

std::vector<FailoverWindow> ProcessShardRuntime::failover_windows() const {
  std::lock_guard<std::mutex> lock(windows_mutex_);
  return windows_;
}

u64 ProcessShardRuntime::torn_repairs() const {
  return transport_->segment_header()->torn_repairs.load(
      std::memory_order_relaxed);
}

fault::ProcessHealth ProcessShardRuntime::process_health(int index) const {
  const Slot& slot = slots_[static_cast<usize>(index)];
  fault::ProcessHealth health;
  health.alive = slot.alive.load(std::memory_order_acquire);
  health.pid = static_cast<u32>(slot.pid.load(std::memory_order_acquire));
  health.heartbeat = transport_->control(index)->heartbeat.load(
      std::memory_order_acquire);
  return health;
}

bool ProcessShardRuntime::signal_process(int index, int signo) {
  const pid_t pid =
      slots_[static_cast<usize>(index)].pid.load(std::memory_order_acquire);
  if (pid == 0) return false;
  return ::kill(pid, signo) == 0;
}

bool ProcessShardRuntime::reap_process(int index) {
  Slot& slot = slots_[static_cast<usize>(index)];
  const pid_t pid = slot.pid.load(std::memory_order_acquire);
  if (pid == 0) return false;
  int status = 0;
  const pid_t r = ::waitpid(pid, &status, WNOHANG);
  if (r != pid) return false;

  slot.alive.store(false, std::memory_order_release);
  slot.pid.store(0, std::memory_order_release);
  ShardControl* control = transport_->control(index);
  control->state.store(static_cast<u32>(ShardState::kDown),
                       std::memory_order_release);
  control->pid.store(0, std::memory_order_release);
  // A child that died inside a ShmWriteGuard leaves the generation odd;
  // with the writer reaped, the parent is the only process left that may
  // repair it.
  common::repair_torn_segment(transport_->segment_header());

  const Nanos now = common::monotonic_now();
  std::lock_guard<std::mutex> lock(windows_mutex_);
  slot.open_window = static_cast<int>(windows_.size());
  windows_.push_back(FailoverWindow{index, now, 0});
  common::global_logger().warn(
      "shard %d process died (status %d): failover window open", index,
      status);
  return true;
}

bool ProcessShardRuntime::respawn_process(int index) {
  Slot& slot = slots_[static_cast<usize>(index)];
  if (slot.alive.load(std::memory_order_acquire)) return false;
  if (auto st = spawn(index); !st) {
    common::global_logger().warn("shard %d respawn failed: %s", index,
                                 st.message().c_str());
    return false;
  }
  // The outage ends when the recovered child reports kRunning (bounded
  // wait — supervision runs at best-effort priority, blocking is fine).
  const ShardControl* control = transport_->control(index);
  const Nanos deadline = common::monotonic_now() + common::millis(2000);
  while (control->state.load(std::memory_order_acquire) !=
             static_cast<u32>(ShardState::kRunning) &&
         common::monotonic_now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const Nanos now = common::monotonic_now();
  std::lock_guard<std::mutex> lock(windows_mutex_);
  if (slot.open_window >= 0 &&
      slot.open_window < static_cast<int>(windows_.size())) {
    windows_[static_cast<usize>(slot.open_window)].end = now;
  }
  slot.open_window = -1;
  return true;
}

}  // namespace rtseed::shard
