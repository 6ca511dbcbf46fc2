#include "core/optional_pool.hpp"

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/rt_logger.hpp"
#include "fault/injector.hpp"
#include "rt/cpuset.hpp"
#include "rt/futex.hpp"
#include "rt/periodic_clock.hpp"

namespace rtseed::core {

namespace {

// Bounded adaptive spins before committing to a sleep.  One iteration is
// a PAUSE plus a load: 4096 of them measured about 70 µs (~17 ns each) on
// a 4-vCPU Sapphire Rapids-class Xeon KVM guest, so the worker spin
// (rt::worker_spin_iters()) is ~35 µs.
//
// Spinning only pays when the thread we are waiting on can run
// CONCURRENTLY.  The completion spin follows completion_spin_allowed():
// the mandatory thread outranks its optional parts, so a spin on the CPU
// of a part it signalled only holds that part off its core.  The worker
// spin is gated on the host alone (none on a single-CPU host) and stays on
// beside a co-located caller: it runs below the caller's priority, costs
// it nothing, and keeps that CPU out of the idle state, so the completion
// wake that ends the caller's park takes no idle exit (gating it too
// doubled the completion wake on oms_gateway, 10 → 21 µs).
constexpr int kCompletionSpinIters = 4096;

constexpr std::uint32_t completion_count(std::uint32_t word) {
  return word & ~(1u << 31);
}

}  // namespace

bool completion_spin_allowed(std::span<const common::CpuId> part_cpus,
                             int count, common::CpuId caller_cpu) {
  const int signalled = std::min(count, static_cast<int>(part_cpus.size()));
  for (int k = 0; k < signalled; ++k) {
    if (part_cpus[static_cast<std::size_t>(k)] == caller_cpu) return false;
  }
  return true;
}

const char* wake_backend_name(WakeBackend backend) {
  switch (backend) {
    case WakeBackend::kAuto:
      return "auto";
    case WakeBackend::kFutexBatch:
      return "futex-batch";
    case WakeBackend::kCondvar:
      return "condvar";
  }
  return "?";
}

WakeBackend resolve_wake_backend(WakeBackend requested) {
  if (requested != WakeBackend::kAuto) return requested;
  if (const char* env = std::getenv("RTSEED_WAKE_BACKEND")) {
    if (std::strcmp(env, "condvar") == 0) return WakeBackend::kCondvar;
    if (std::strcmp(env, "futex-batch") != 0) {
      common::global_logger().warn(
          "RTSEED_WAKE_BACKEND=%s is not futex-batch|condvar; using "
          "futex-batch",
          env);
    }
  }
  return WakeBackend::kFutexBatch;
}

OptionalPool::OptionalPool(Options options, PartBody body)
    : options_(std::move(options)),
      backend_(resolve_wake_backend(options_.wake_backend)),
      body_(std::move(body)),
      slots_(common::make_aligned_array<Slot>(options_.cpus.size())),
      num_slots_(static_cast<int>(options_.cpus.size())) {
  if (options_.scratch_bytes > 0) {
    for (int k = 0; k < num_slots_; ++k) {
      slots_[static_cast<size_t>(k)].scratch.reserve(options_.scratch_bytes);
    }
  }
}

OptionalPool::~OptionalPool() { shutdown(); }

void OptionalPool::spawn_worker_locked(int part) {
  rt::ThreadConfig tc;
  tc.name = options_.name_prefix + ".o" + std::to_string(part);
  tc.fifo_priority = options_.fifo_priority;
  tc.affinity = rt::CpuSet::single(options_.cpus[static_cast<size_t>(part)]);
  threads_[static_cast<size_t>(part)] =
      rt::RtThread(tc, [this, part] { thread_main(part); });
}

common::Status OptionalPool::start() {
  std::lock_guard lock(lifecycle_mutex_);
  if (started_) return common::failed_precondition("pool already started");
  started_ = true;
  threads_.resize(static_cast<size_t>(num_slots_));
  for (int k = 0; k < size(); ++k) spawn_worker_locked(k);
  return common::Status::ok();
}

void OptionalPool::batch_wake_workers() {
  // The bump closes the publish→sleep transit window: a worker that loaded
  // the pre-bump generation and is about to enter FUTEX_WAIT is bounced by
  // the kernel's word revalidation; one that already sleeps is woken by
  // the broadcast.  One syscall either way.
  wake_gen_.fetch_add(1, std::memory_order_release);
  rt::wake_word(wake_gen_, std::numeric_limits<int>::max());
}

void OptionalPool::shutdown() {
  std::lock_guard lock(lifecycle_mutex_);
  if (!started_) return;
  if (backend_ == WakeBackend::kCondvar) {
    for (int k = 0; k < num_slots_; ++k) {
      auto& slot = slots_[static_cast<size_t>(k)];
      std::lock_guard slot_lock(slot.cv);
      slot.state = Slot::State::kShutdown;
      slot.cv.notify_one();
    }
  } else {
    // Publish every shutdown command first; then one batched wake.
    bool any_parked = false;
    for (int k = 0; k < num_slots_; ++k) {
      auto& slot = slots_[static_cast<size_t>(k)];
      const std::uint32_t prev =
          slot.cmd.exchange(kCmdShutdown, std::memory_order_acq_rel);
      if (prev == kCmdParked) any_parked = true;
    }
    if (any_parked) batch_wake_workers();
  }
  for (auto& thread : threads_) thread.join();
  threads_.clear();
  started_ = false;
}

OptionalPool::RoundResult OptionalPool::run_round(const JobContext& ctx,
                                                  int count) {
  RoundResult result;
  count = std::min(count, size());
  if (count <= 0) return result;

  first_part_start_.store(0, std::memory_order_release);
  round_completed_.store(0, std::memory_order_relaxed);
  round_terminated_.store(0, std::memory_order_relaxed);

  const bool emit_window = caller_trace_ != nullptr && telemetry_ != nullptr;
  if (emit_window) {
    caller_trace_->emit({telemetry_->now(), task_, ctx.job, count,
                         obs::EventKind::kSignalBegin});
  }

  // Begin parallel optional parts.  kCondvar: one wake per thread
  // (paper §IV-C: never broadcast).  kFutexBatch: publish every
  // command word first, then ONE batched wake — same no-spurious-wakeup
  // guarantee (only parked workers of THIS pool sleep on the generation
  // word), 1/k-th the syscalls.  This loop is the Δb window.
  if (backend_ != WakeBackend::kCondvar) {
    // Workers read the countdown only after acquiring their cmd word, so
    // a relaxed store ordered by the release-exchange below suffices.
    remaining_.store(static_cast<std::uint32_t>(count),
                     std::memory_order_relaxed);
    result.signal_start = common::monotonic_now();
    bool any_parked = false;
    for (int k = 0; k < count; ++k) {
      auto& slot = slots_[static_cast<size_t>(k)];
      slot.job = ctx;
      slot.force_flag.store(false, std::memory_order_relaxed);
      // One relaxed publish + release-exchange per part; wake syscalls
      // are skipped when the worker is still spinning (cmd was kCmdIdle).
      const std::uint32_t prev =
          slot.cmd.exchange(kCmdReady, std::memory_order_release);
      if (prev == kCmdParked) any_parked = true;
    }
    if (any_parked &&
        // Chaos: the single batched wake is swallowed/late — strands every
        // parked worker at once; the recovery loop re-broadcasts.
        !fault::try_fire(fault::InjectPoint::kLostWake)) {
      if (fault::try_fire(fault::InjectPoint::kDelayedWake)) {
        rt::sleep_for(fault::injected_delay_ns());
      }
      batch_wake_workers();
    }
    result.signal_end = common::monotonic_now();
  } else {
    {
      std::lock_guard lock(completion_cv_);
      remaining_cv_ = count;
    }
    result.signal_start = common::monotonic_now();
    for (int k = 0; k < count; ++k) {
      auto& slot = slots_[static_cast<size_t>(k)];
      std::lock_guard lock(slot.cv);
      slot.job = ctx;
      slot.force_flag.store(false, std::memory_order_relaxed);
      slot.state = Slot::State::kReady;
      // Chaos: pthread condvars only re-check predicates on wakeups, so a
      // swallowed notify strands the worker exactly like a lost futex
      // wake; the recovery loop below re-notifies.
      if (fault::try_fire(fault::InjectPoint::kLostWake)) continue;
      if (fault::try_fire(fault::InjectPoint::kDelayedWake)) {
        rt::sleep_for(fault::injected_delay_ns());
      }
      slot.cv.notify_one();
    }
    result.signal_end = common::monotonic_now();
  }
  if (emit_window) {
    caller_trace_->emit({telemetry_->now(), task_, ctx.job, count,
                         obs::EventKind::kSignalEnd});
  }

  // Wait for all parts to end; past OD + margin, force the stop tokens
  // (covers the periodic-check strategy) and keep waiting in BOUNDED
  // slices — the next phase must not overlap optional execution, but an
  // unbounded wait here turns any lost wake into a permanent hang.  Each
  // slice that expires re-wakes every slot whose handoff state still
  // reads ready: that is precisely a worker that committed to sleeping
  // before the signal landed (futex: the kernel validates the word only
  // at FUTEX_WAIT entry; condvar: predicates are only re-checked on
  // wakeups) — or a dead worker whose part the supervisor will respawn
  // someone to consume.
  const Nanos force_deadline =
      ctx.optional_deadline + options_.completion_margin;
  constexpr Nanos kRecoveryRetryInterval = common::millis(10);
  const auto rewake_unconsumed = [&] {
    bool any_stranded = false;
    for (int k = 0; k < count; ++k) {
      auto& slot = slots_[static_cast<size_t>(k)];
      bool stranded = false;
      if (backend_ == WakeBackend::kCondvar) {
        std::lock_guard lock(slot.cv);
        stranded = slot.state == Slot::State::kReady;
        if (stranded) slot.cv.notify_one();
      } else {
        stranded = slot.cmd.load(std::memory_order_acquire) == kCmdReady;
      }
      if (stranded) {
        any_stranded = true;
        wake_retries_.fetch_add(1, std::memory_order_relaxed);
        if (emit_window) {
          caller_trace_->emit({telemetry_->now(), task_, ctx.job, k,
                               obs::EventKind::kWakeRetry});
        }
      }
    }
    // kFutexBatch: however many workers are stranded, recovery is the
    // same single broadcast the normal path uses.
    if (any_stranded && backend_ == WakeBackend::kFutexBatch) {
      batch_wake_workers();
    }
  };
  if (backend_ != WakeBackend::kCondvar) {
    const int spin_iters =
        completion_spin_allowed(options_.cpus, count, rt::current_cpu())
            ? kCompletionSpinIters
            : 0;
    if (!wait_completion_word(force_deadline, spin_iters)) {
      force_parts(count);
      while (!wait_completion_word(
          common::monotonic_now() + kRecoveryRetryInterval, spin_iters)) {
        rewake_unconsumed();
      }
    }
  } else {
    completion_cv_.lock();
    const bool on_time = completion_cv_.wait_until(
        force_deadline, [this] { return remaining_cv_ == 0; });
    completion_cv_.unlock();
    if (!on_time) {
      force_parts(count);
      for (;;) {
        completion_cv_.lock();
        const bool done = completion_cv_.wait_until(
            common::monotonic_now() + kRecoveryRetryInterval,
            [this] { return remaining_cv_ == 0; });
        completion_cv_.unlock();
        if (done) break;
        rewake_unconsumed();
      }
    }
  }

  result.all_ended = common::monotonic_now();
  result.completed = round_completed_.load(std::memory_order_relaxed);
  result.terminated = round_terminated_.load(std::memory_order_relaxed);
  result.first_part_start = first_part_start_.load(std::memory_order_acquire);
  return result;
}

bool OptionalPool::wait_completion_word(Nanos abs_deadline, int spins) {
  // Adaptive spin first (when allowed): with short parts on other CPUs the
  // countdown hits zero while we are still here and the whole round
  // completes without ANY completion syscall on either side (the workers
  // skip their wake because the waiter bit is unset).
  for (;;) {
    const std::uint32_t word = remaining_.load(std::memory_order_acquire);
    if (completion_count(word) == 0) return true;
    if (spins-- > 0) {
      rt::cpu_relax();
      continue;
    }
    // Advertise that we are about to sleep; the fetch_or re-checks the
    // count atomically, so a final decrement cannot slip between the
    // check and the FUTEX_WAIT (the kernel re-validates the word too).
    const std::uint32_t observed =
        remaining_.fetch_or(kCompletionWaiterBit, std::memory_order_acq_rel) |
        kCompletionWaiterBit;
    if (completion_count(observed) == 0) return true;
    if (abs_deadline >= 0) {
      if (!rt::wait_word_until(remaining_, observed, abs_deadline)) {
        return completion_count(remaining_.load(std::memory_order_acquire)) ==
               0;
      }
    } else {
      rt::wait_word(remaining_, observed);
    }
  }
}

void OptionalPool::force_parts(int count) {
  for (int k = 0; k < count; ++k) {
    slots_[static_cast<size_t>(k)].force_flag.store(
        true, std::memory_order_relaxed);
  }
}

std::uint32_t OptionalPool::wait_for_command(Slot& slot) {
  for (;;) {
    std::uint32_t cmd = slot.cmd.load(std::memory_order_acquire);
    for (int spins = rt::worker_spin_iters(); cmd == kCmdIdle && spins > 0;
         --spins) {
      rt::cpu_relax();
      cmd = slot.cmd.load(std::memory_order_acquire);
    }
    if (cmd == kCmdIdle) {
      // Commit to sleeping, then sleep on the SHARED generation word.
      // Order is load-gen → re-check-cmd → wait: the signaller publishes
      // commands before bumping the generation, so seeing the new
      // generation implies seeing our command, and a bump between our
      // generation load and the FUTEX_WAIT bounces off the kernel's
      // revalidation.  No interleaving leaves us asleep with a command
      // pending.
      std::uint32_t expected = kCmdIdle;
      if (slot.cmd.compare_exchange_strong(expected, kCmdParked,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        for (;;) {
          const std::uint32_t gen = wake_gen_.load(std::memory_order_acquire);
          cmd = slot.cmd.load(std::memory_order_acquire);
          if (cmd != kCmdParked) break;
          rt::wait_word(wake_gen_, gen);
          // Woken (possibly for a round that signals other parts only)
          // — re-check our command against the NEW generation.
        }
      } else {
        cmd = expected;
      }
    }
    if (cmd == kCmdReady || cmd == kCmdShutdown) return cmd;
  }
}

void OptionalPool::execute_part(Slot& slot, int part, const JobContext& job,
                                obs::TraceBuffer* trace) {
  const Nanos started = common::monotonic_now();
  Nanos expected = 0;
  first_part_start_.compare_exchange_strong(expected, started,
                                            std::memory_order_acq_rel);
  // Publish the busy window for the supervisor: two relaxed stores and a
  // heartbeat bump per part (matched by the clear at the end).
  slot.busy_since.store(started, std::memory_order_relaxed);
  slot.busy_deadline.store(job.optional_deadline, std::memory_order_relaxed);
  slot.heartbeat.fetch_add(1, std::memory_order_relaxed);
  // Chaos: the worker stalls before reaching its body — the shape of a
  // page fault storm or an unbounded syscall.  The OD timer is not armed
  // yet, so only the supervisor (or the expired deadline, once the body
  // finally starts) can recover this.
  if (fault::try_fire(fault::InjectPoint::kWorkerStall)) {
    rt::sleep_for(fault::injected_stall_ns());
  }
  if (trace != nullptr) {
    trace->emit({telemetry_->now(), task_, job.job, part,
                 obs::EventKind::kOptionalBegin});
  }

  TerminationOptions term_options;
  term_options.repair_signal_mask = options_.repair_signal_mask;
  const auto outcome = run_with_deadline(
      options_.termination, job.optional_deadline,
      [&](StopToken& token) {
        // The token observes the slot's stable force flag instead of the
        // pool holding a pointer into this stack frame: the mandatory
        // thread's force-after-margin path is one relaxed store per part
        // and can never dereference a dead token.
        token.bind_force_flag(&slot.force_flag);
        if (body_) {
          // Only std::exception is absorbed: the try-catch termination
          // strategy's own (non-std) deadline exception must propagate.
          try {
            body_(job, part, token);
          } catch (const std::exception& e) {
            body_errors_.fetch_add(1, std::memory_order_relaxed);
            common::global_logger().error(
                "%s.o%d: exception in optional part: %s",
                options_.name_prefix.c_str(), part, e.what());
          }
        }
      },
      term_options);

  if (outcome.outcome == OptionalOutcome::kCompleted) {
    round_completed_.fetch_add(1, std::memory_order_relaxed);
    if (trace != nullptr) {
      trace->emit({telemetry_->now(), task_, job.job, part,
                   obs::EventKind::kOptionalEnd});
    }
  } else {
    round_terminated_.fetch_add(1, std::memory_order_relaxed);
    // Emitted after run_with_deadline returned — i.e. after the
    // siglongjmp/exception unwound back to this frame, where emitting
    // is safe again (never from inside the signal handler).
    if (trace != nullptr) {
      trace->emit({telemetry_->now(), task_, job.job, part,
                   obs::EventKind::kOptionalTerminated});
    }
  }
  slot.busy_deadline.store(0, std::memory_order_relaxed);
  slot.busy_since.store(0, std::memory_order_relaxed);
  slot.heartbeat.fetch_add(1, std::memory_order_relaxed);
}

void OptionalPool::thread_main(int part) {
  auto& slot = slots_[static_cast<size_t>(part)];
  slot.handle.store(pthread_self(), std::memory_order_relaxed);
  slot.alive.store(true, std::memory_order_release);
  // Every exit path must lower the alive flag — it is what tells the
  // supervisor this worker needs respawning.
  struct AliveGuard {
    Slot& slot;
    ~AliveGuard() { slot.alive.store(false, std::memory_order_release); }
  } alive_guard{slot};
  // Telemetry registration happens here, on the thread's setup path,
  // before the first job is ever signalled — the emit path below is
  // branch-plus-ring-push only.
  obs::TraceBuffer* trace = nullptr;
  if (telemetry_ != nullptr) {
    trace = telemetry_->register_thread(
        options_.name_prefix + ".o" + std::to_string(part),
        options_.cpus[static_cast<size_t>(part)]);
  }
  for (;;) {
    JobContext job;
    if (backend_ != WakeBackend::kCondvar) {
      const std::uint32_t cmd = wait_for_command(slot);
      if (cmd == kCmdShutdown) return;
      // Chaos: the worker dies with the command UNCONSUMED (cmd stays
      // kCmdReady, the countdown undecremented) — the worst spot to die.
      // The respawned worker's wait_for_command picks the part right up.
      if (fault::try_fire(fault::InjectPoint::kWorkerDeath)) return;
      job = slot.job;
      // Reset before the completion decrement below: once the round
      // completes the signaller may immediately publish the next one and
      // its exchange must find kCmdIdle, not a stale kCmdReady.
      slot.cmd.store(kCmdIdle, std::memory_order_relaxed);
    } else {
      std::lock_guard lock(slot.cv);
      slot.cv.wait([&slot] { return slot.state != Slot::State::kIdle; });
      if (slot.state == Slot::State::kShutdown) return;
      // Chaos: die with state still kReady (see above); the respawned
      // worker's predicate sees it immediately.
      if (fault::try_fire(fault::InjectPoint::kWorkerDeath)) return;
      job = slot.job;
      slot.state = Slot::State::kIdle;
    }

    // Recycle this slot's scratch (one store) and expose it to the body.
    if (slot.scratch.capacity() > 0) {
      slot.scratch.reset();
      job.scratch = &slot.scratch;
    }

    execute_part(slot, part, job, trace);

    if (backend_ != WakeBackend::kCondvar) {
      // Single-countdown Δe path: one atomic per part, one wake syscall
      // per round at most — and none at all when the mandatory thread is
      // still in its adaptive spin (waiter bit unset).
      const std::uint32_t prev =
          remaining_.fetch_sub(1, std::memory_order_acq_rel);
      if (completion_count(prev) == 1 &&
          (prev & kCompletionWaiterBit) != 0) {
        rt::wake_word(remaining_, 1);
      }
    } else {
      bool last = false;
      {
        std::lock_guard lock(completion_cv_);
        last = (--remaining_cv_ == 0);
      }
      if (last) completion_cv_.notify_one();
    }
  }
}

// ---- fault::SupervisedPool -------------------------------------------------
//
// Called only from the supervisor thread, which the Runtime stops BEFORE
// shutting the pools down — so kill/respawn never race shutdown's joins.

fault::WorkerHealth OptionalPool::worker_health(int worker) const {
  fault::WorkerHealth health;
  if (worker < 0 || worker >= size()) return health;
  const Slot& slot = slots_[static_cast<size_t>(worker)];
  health.alive = slot.alive.load(std::memory_order_acquire);
  health.busy_since = slot.busy_since.load(std::memory_order_relaxed);
  health.busy = health.busy_since != 0;
  health.busy_deadline = slot.busy_deadline.load(std::memory_order_relaxed);
  health.heartbeat = slot.heartbeat.load(std::memory_order_relaxed);
  return health;
}

void OptionalPool::force_worker(int worker) {
  if (worker < 0 || worker >= size()) return;
  // The same slot-owned flag the force-after-margin path writes; the
  // part's StopToken observes it, so this is idempotent and lock-free.
  slots_[static_cast<size_t>(worker)].force_flag.store(
      true, std::memory_order_relaxed);
}

bool OptionalPool::kill_worker(int worker) {
  if (worker < 0 || worker >= size()) return false;
  // Only the sigjmp strategy has an asynchronous, safe-by-design signal
  // path (the handler no-ops unless the target is inside an armed
  // sigsetjmp region).  Under periodic-check the body polls and under
  // try-catch the unwind tables only cover the strategy's own TU.
  if (options_.termination != TerminationStrategy::kSigjmp) return false;
  auto& slot = slots_[static_cast<size_t>(worker)];
  if (!slot.alive.load(std::memory_order_acquire)) return false;
  if (slot.busy_since.load(std::memory_order_relaxed) == 0) return false;
  ensure_sigjmp_handler_installed();
  return pthread_kill(slot.handle.load(std::memory_order_relaxed),
                      sigjmp_signal()) == 0;
}

bool OptionalPool::respawn_worker(int worker) {
  std::lock_guard lock(lifecycle_mutex_);
  if (!started_ || worker < 0 || worker >= size()) return false;
  auto& slot = slots_[static_cast<size_t>(worker)];
  if (slot.alive.load(std::memory_order_acquire)) return false;
  auto& thread = threads_[static_cast<size_t>(worker)];
  if (thread.joinable()) thread.join();  // reap the exited thread
  // Any command the dead worker left unconsumed (cmd still kCmdReady /
  // state still kReady) is picked up by the fresh worker immediately.
  spawn_worker_locked(worker);
  return true;
}

}  // namespace rtseed::core
