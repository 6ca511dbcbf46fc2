// Wait/wake primitives on a 32-bit atomic word — the substrate of the
// OptionalPool's mandatory↔optional handoff (the Δb/Δe hot path).
//
// Two backends, chosen at build time:
//
//  * raw Linux futexes (the default on Linux): waking a sleeping thread is
//    one FUTEX_WAKE syscall, waking a spinning thread is zero syscalls,
//    and timed waits use FUTEX_WAIT_BITSET with an *absolute*
//    CLOCK_MONOTONIC deadline — no epoch conversion, no steady_clock
//    assumptions;
//  * a portable std::atomic<>::wait/notify fallback
//    (-DRTSEED_PORTABLE_WAIT=ON, or any non-Linux host).  Untimed waits
//    map 1:1; timed waits poll in bounded slices, which is adequate for
//    the CI/sanitizer builds the fallback exists for (the force-after-
//    margin deadline is tens of milliseconds, the slice is ≤ 200 µs).
//
// All happens-before edges are carried by the atomic word itself
// (release stores / acquire loads around the wait), never by the futex
// syscall — which keeps both backends ThreadSanitizer-visible.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/time.hpp"

namespace rtseed::rt {

/// One spin-loop pause (x86 PAUSE / arm YIELD); use between polls of a
/// wait word so a sibling hardware thread can make progress.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// PAUSEs a waiter polls its word for before it parks, when the thread
/// that will end the wait runs on another CPU: the optional-pool workers
/// wait for a command this way, and the shard process workers for their
/// next ingress message.  2048 — one PAUSE plus a load measured ~17 ns on
/// a 4-vCPU Sapphire Rapids-class Xeon KVM guest, so ~35 µs there — and
/// 0 on a single-CPU host, where the awaited thread cannot run while we
/// spin.
int worker_spin_iters();

/// Process-wide counters of the wake path's kernel traffic, kept with
/// relaxed increments (one per actual syscall / notify, nothing on the
/// skip-when-spinning fast path).  Benches and the syscall-budget tests
/// read these to assert claims like "one batched wake per fan-out".
struct WakeStats {
  std::uint64_t wake_calls = 0;   ///< wake_word invocations
  std::uint64_t wait_sleeps = 0;  ///< kernel sleeps entered by wait_word*
};

/// Snapshot of the counters since process start (or the last reset).
WakeStats wake_stats();

/// Zeroes the counters — benches call this between A/B arms.  Racing
/// increments may straddle the reset; callers quiesce the pool first.
void reset_wake_stats();

/// Wakes up to `count` threads blocked in wait_word/wait_word_until on
/// `word`.  A no-op when nobody is waiting (callers are expected to skip
/// even this call when they know the waiter is spinning, not sleeping).
void wake_word(std::atomic<std::uint32_t>& word, int count);

/// Blocks while `word == expected`.  Returns immediately when the word
/// already differs; spurious returns are possible (callers re-check).
void wait_word(std::atomic<std::uint32_t>& word, std::uint32_t expected);

/// Like wait_word but gives up at the absolute CLOCK_MONOTONIC deadline
/// `abs_deadline` (common::monotonic_now() timebase).  Returns false iff
/// the deadline passed with the word still equal to `expected`.
bool wait_word_until(std::atomic<std::uint32_t>& word,
                     std::uint32_t expected, common::Nanos abs_deadline);

// ---- cross-PROCESS variants ------------------------------------------------
//
// The wait/wake pair above uses FUTEX_PRIVATE_FLAG: correct and cheaper
// for threads of one process, silently broken for a word in a MAP_SHARED
// segment watched from another process.  The _shared variants drop the
// flag so the kernel keys the wait on the physical page — the doorbell
// substrate of the multi-process shard transport (common::ShmSpscRing).
//
// EINTR discipline: a signal interrupting the wait (the shard worker
// processes take SIGTERM from the supervisor) re-checks the word and the
// deadline and re-enters the wait — a drain loop can never be silently
// aborted by a stray signal.  The portable fallback polls in bounded
// slices (std::atomic::wait is not cross-process safe), which keeps the
// same contract at CI-grade latency.

/// Wakes up to `count` PROCESSES (or threads) blocked in
/// wait_word_shared_until on `word`, which may live in shared memory.
void wake_word_shared(std::atomic<std::uint32_t>& word, int count);

/// Blocks while `word == expected`, until the absolute CLOCK_MONOTONIC
/// deadline.  Cross-process safe; EINTR and spurious wakes re-check and
/// re-enter.  Returns false iff the deadline passed with the word still
/// equal to `expected`.
bool wait_word_shared_until(std::atomic<std::uint32_t>& word,
                            std::uint32_t expected,
                            common::Nanos abs_deadline);

}  // namespace rtseed::rt
