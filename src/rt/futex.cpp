#include "rt/futex.hpp"

#include "fault/injector.hpp"
#include "rt/thread.hpp"

#if defined(__linux__) && !defined(RTSEED_PORTABLE_WAIT)
#define RTSEED_FUTEX_NATIVE 1
#endif

#if RTSEED_FUTEX_NATIVE
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#else
#include <algorithm>
#include <chrono>
#include <thread>
#endif

namespace rtseed::rt {

static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "the wait word must be a plain 32-bit cell");

namespace {

std::atomic<std::uint64_t> g_wake_calls{0};
std::atomic<std::uint64_t> g_wait_sleeps{0};

inline void count_wake() {
  g_wake_calls.fetch_add(1, std::memory_order_relaxed);
}
inline void count_sleep() {
  g_wait_sleeps.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

int worker_spin_iters() {
  static const int iters = rt_capabilities().num_cpus > 1 ? 2048 : 0;
  return iters;
}

WakeStats wake_stats() {
  WakeStats stats;
  stats.wake_calls = g_wake_calls.load(std::memory_order_relaxed);
  stats.wait_sleeps = g_wait_sleeps.load(std::memory_order_relaxed);
  return stats;
}

void reset_wake_stats() {
  g_wake_calls.store(0, std::memory_order_relaxed);
  g_wait_sleeps.store(0, std::memory_order_relaxed);
}

#if RTSEED_FUTEX_NATIVE

namespace {

long sys_futex(std::atomic<std::uint32_t>* addr, int op, std::uint32_t val,
               const timespec* timeout, std::uint32_t val3) {
  // std::atomic<u32> is layout-compatible with the u32 the kernel expects
  // (guaranteed lock-free above).
  return syscall(SYS_futex, static_cast<void*>(addr), op, val, timeout,
                 nullptr, val3);
}

}  // namespace

void wake_word(std::atomic<std::uint32_t>& word, int count) {
  count_wake();
  sys_futex(&word, FUTEX_WAKE | FUTEX_PRIVATE_FLAG,
            static_cast<std::uint32_t>(count), nullptr, 0);
}

void wait_word(std::atomic<std::uint32_t>& word, std::uint32_t expected) {
  while (word.load(std::memory_order_acquire) == expected) {
    // Chaos: a spurious return, exactly what EINTR produces — the loop
    // must absorb it by re-checking the word.
    if (fault::try_fire(fault::InjectPoint::kEintrStorm)) continue;
    // EAGAIN (word changed before we slept) and EINTR both re-check.
    count_sleep();
    sys_futex(&word, FUTEX_WAIT | FUTEX_PRIVATE_FLAG, expected, nullptr, 0);
  }
}

bool wait_word_until(std::atomic<std::uint32_t>& word,
                     std::uint32_t expected, common::Nanos abs_deadline) {
  // FUTEX_WAIT_BITSET takes an ABSOLUTE timeout and, without
  // FUTEX_CLOCK_REALTIME, measures it on CLOCK_MONOTONIC — exactly the
  // timebase of common::monotonic_now(), so no epoch conversion exists to
  // get wrong.
  const timespec ts = common::to_timespec(abs_deadline < 0 ? 0 : abs_deadline);
  while (word.load(std::memory_order_acquire) == expected) {
    if (fault::try_fire(fault::InjectPoint::kEintrStorm)) {
      if (common::monotonic_now() >= abs_deadline) {
        return word.load(std::memory_order_acquire) != expected;
      }
      continue;
    }
    count_sleep();
    const long rc = sys_futex(&word, FUTEX_WAIT_BITSET | FUTEX_PRIVATE_FLAG,
                              expected, &ts, FUTEX_BITSET_MATCH_ANY);
    if (rc == -1 && errno == ETIMEDOUT) {
      return word.load(std::memory_order_acquire) != expected;
    }
  }
  return true;
}

void wake_word_shared(std::atomic<std::uint32_t>& word, int count) {
  count_wake();
  // No FUTEX_PRIVATE_FLAG: the kernel keys on the physical page, so a
  // waiter in another process mapping the same segment is found.
  sys_futex(&word, FUTEX_WAKE, static_cast<std::uint32_t>(count), nullptr, 0);
}

bool wait_word_shared_until(std::atomic<std::uint32_t>& word,
                            std::uint32_t expected,
                            common::Nanos abs_deadline) {
  const timespec ts = common::to_timespec(abs_deadline < 0 ? 0 : abs_deadline);
  while (word.load(std::memory_order_acquire) == expected) {
    if (fault::try_fire(fault::InjectPoint::kEintrStorm)) {
      if (common::monotonic_now() >= abs_deadline) {
        return word.load(std::memory_order_acquire) != expected;
      }
      continue;
    }
    count_sleep();
    const long rc = sys_futex(&word, FUTEX_WAIT_BITSET, expected, &ts,
                              FUTEX_BITSET_MATCH_ANY);
    // EINTR (signal), EAGAIN (word changed first) both fall through to
    // the word re-check; only a real timeout ends the wait.
    if (rc == -1 && errno == ETIMEDOUT) {
      return word.load(std::memory_order_acquire) != expected;
    }
  }
  return true;
}

#else  // portable std::atomic wait/notify fallback

void wake_word(std::atomic<std::uint32_t>& word, int count) {
  count_wake();
  if (count > 1) {
    word.notify_all();
  } else {
    word.notify_one();
  }
}

void wait_word(std::atomic<std::uint32_t>& word, std::uint32_t expected) {
  while (word.load(std::memory_order_acquire) == expected) {
    // Chaos: behave as if the wait returned spuriously (EINTR-equivalent).
    if (fault::try_fire(fault::InjectPoint::kEintrStorm)) continue;
    count_sleep();
    word.wait(expected, std::memory_order_acquire);
  }
}

bool wait_word_until(std::atomic<std::uint32_t>& word,
                     std::uint32_t expected, common::Nanos abs_deadline) {
  // std::atomic::wait has no timed form; poll in bounded slices.  The
  // timed wait only guards the force-after-margin path (tens of ms), so a
  // ≤ 200 µs slice costs nothing measurable on this backend.
  constexpr common::Nanos kMaxSlice = common::micros(200);
  int spins = 256;
  for (;;) {
    if (word.load(std::memory_order_acquire) != expected) return true;
    const common::Nanos now = common::monotonic_now();
    if (now >= abs_deadline) {
      return word.load(std::memory_order_acquire) != expected;
    }
    if (spins-- > 0) {
      cpu_relax();
      continue;
    }
    // Chaos: skip the sleep slice, as an interrupted nanosleep would.
    if (fault::try_fire(fault::InjectPoint::kEintrStorm)) continue;
    count_sleep();
    const common::Nanos slice = std::min(kMaxSlice, abs_deadline - now);
    std::this_thread::sleep_for(std::chrono::nanoseconds(slice));
  }
}

void wake_word_shared(std::atomic<std::uint32_t>& word, int count) {
  // The waiter below never sleeps on a notify primitive (std::atomic's
  // wait table is process-private), so there is nobody to notify: it
  // polls the word in bounded slices and sees the store directly.
  (void)word;
  (void)count;
  count_wake();
}

bool wait_word_shared_until(std::atomic<std::uint32_t>& word,
                            std::uint32_t expected,
                            common::Nanos abs_deadline) {
  constexpr common::Nanos kMaxSlice = common::micros(200);
  int spins = 256;
  for (;;) {
    if (word.load(std::memory_order_acquire) != expected) return true;
    const common::Nanos now = common::monotonic_now();
    if (now >= abs_deadline) {
      return word.load(std::memory_order_acquire) != expected;
    }
    if (spins-- > 0) {
      cpu_relax();
      continue;
    }
    if (fault::try_fire(fault::InjectPoint::kEintrStorm)) continue;
    count_sleep();
    const common::Nanos slice = std::min(kMaxSlice, abs_deadline - now);
    std::this_thread::sleep_for(std::chrono::nanoseconds(slice));
  }
}

#endif

}  // namespace rtseed::rt
