// Single-producer/single-consumer ring over a shared-memory segment —
// common::SpscRing generalized to storage that can cross a process (or
// shard) boundary.
//
// Differences from SpscRing:
//  * the ring does not own its storage: it is a VIEW over a caller-
//    provided byte region (typically a ShmSegment, possibly mapped at a
//    different base address in each participant);
//  * T must be trivially copyable (bytes are the interface — no
//    constructors run on the consumer side);
//  * the header carries a magic + element size + capacity so attach()
//    can reject a segment initialized for a different ring shape.
//
// The index discipline is identical: head/tail each own a full
// destructive-interference line, producer releases head after the slot
// write, consumer releases tail after the slot read.  push/pop are
// wait-free and allocation-free — the steady-state cross-shard path
// (bench/micro_shard, tests/hotpath) audits to zero heap allocations.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <optional>
#include <type_traits>

#include "common/cacheline.hpp"
#include "common/types.hpp"

namespace rtseed::common {

template <typename T>
class ShmSpscRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "shared-memory messages are raw bytes; no constructors run "
                "on the far side");

 public:
  static constexpr u64 kMagic = 0x52547368'6d52696eULL;  // "RTshmRin"

  ShmSpscRing() = default;

  /// Bytes a segment must provide for `capacity` elements (power of two
  /// >= 2): header + slot array, each cache-line aligned.
  static usize required_bytes(usize capacity) {
    return sizeof(Header) + capacity * sizeof(T);
  }

  /// Initializes a ring in `mem` (which must be at least required_bytes
  /// and cache-line aligned — mmap returns page-aligned memory).  Called
  /// by exactly one participant, before any attach().
  static ShmSpscRing create(void* mem, usize capacity) {
    assert(mem != nullptr);
    assert(capacity >= 2 && (capacity & (capacity - 1)) == 0);
    assert(reinterpret_cast<std::uintptr_t>(mem) % kCacheLine == 0);
    auto* header = new (mem) Header();
    header->capacity = capacity;
    header->element_size = sizeof(T);
    header->head.value.store(0, std::memory_order_relaxed);
    header->tail.value.store(0, std::memory_order_relaxed);
    // Publish the initialized header before the magic becomes visible to
    // a concurrently attaching participant.
    header->magic.store(kMagic, std::memory_order_release);
    ShmSpscRing ring;
    ring.header_ = header;
    ring.slots_ = reinterpret_cast<T*>(static_cast<unsigned char*>(mem) +
                                       sizeof(Header));
    return ring;
  }

  /// Views a ring previously create()d in (a mapping of) the same
  /// segment.  Returns an invalid ring when the header does not match
  /// this T / was never initialized.
  static ShmSpscRing attach(void* mem) {
    ShmSpscRing ring;
    if (mem == nullptr) return ring;
    auto* header = static_cast<Header*>(mem);
    if (header->magic.load(std::memory_order_acquire) != kMagic ||
        header->element_size != sizeof(T)) {
      return ring;
    }
    ring.header_ = header;
    ring.slots_ = reinterpret_cast<T*>(static_cast<unsigned char*>(mem) +
                                       sizeof(Header));
    return ring;
  }

  bool valid() const { return header_ != nullptr; }
  usize capacity() const { return header_->capacity; }

  /// Producer side; false when full (the message is dropped — real-time
  /// producers never block).
  bool try_push(const T& value) {
    const u64 head = header_->head.value.load(std::memory_order_relaxed);
    const u64 tail = header_->tail.value.load(std::memory_order_acquire);
    if (head - tail >= header_->capacity) return false;
    slots_[head & (header_->capacity - 1)] = value;
    header_->head.value.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side.
  bool try_pop(T* out) {
    const u64 tail = header_->tail.value.load(std::memory_order_relaxed);
    const u64 head = header_->head.value.load(std::memory_order_acquire);
    if (tail == head) return false;
    *out = slots_[tail & (header_->capacity - 1)];
    header_->tail.value.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Copies up to `max` front elements into out[0..n) WITHOUT consuming
  /// them, oldest first, and returns n.  Pair with commit_pop_n(): the
  /// write-ahead discipline of the journaled shard worker (peek → journal
  /// → apply → commit) means a crash at any point leaves every element
  /// either still in the ring or safely in the journal — never silently
  /// lost.
  usize try_peek_n(T* out, usize max) const {
    const u64 tail = header_->tail.value.load(std::memory_order_relaxed);
    const u64 head = header_->head.value.load(std::memory_order_acquire);
    const usize n = std::min(static_cast<usize>(head - tail), max);
    for (usize i = 0; i < n; ++i) {
      out[i] = slots_[(tail + i) & (header_->capacity - 1)];
    }
    return n;
  }

  /// Consumes the `n` elements a preceding try_peek_n returned.  Only call
  /// with n <= that count (single consumer — nobody else moved the tail
  /// in between).
  void commit_pop_n(usize n) {
    const u64 tail = header_->tail.value.load(std::memory_order_relaxed);
    header_->tail.value.store(tail + n, std::memory_order_release);
  }

  std::optional<T> try_pop() {
    T value;
    if (!try_pop(&value)) return std::nullopt;
    return value;
  }

  usize size_approx() const {
    const u64 head = header_->head.value.load(std::memory_order_acquire);
    const u64 tail = header_->tail.value.load(std::memory_order_acquire);
    return static_cast<usize>(head - tail);
  }
  bool empty_approx() const { return size_approx() == 0; }

  // ---- doorbell (optional blocking-consumer protocol) ---------------------
  //
  // The ring itself stays syscall-free: it only keeps the two doorbell
  // words (an eventcount `ding` and a `parked` flag) and the memory-
  // ordering discipline.  The caller that wants to SLEEP does the futex
  // traffic through rt::wait_word_shared_until / wake_word_shared on
  // doorbell_word() — keeping this header free of any rt dependency and
  // the polling fast path free of any doorbell cost (pure try_push/
  // try_pop callers never touch these words).
  //
  // Producer, after a successful try_push:
  //     if (ring.notify_hint()) rt::wake_word_shared(ring.doorbell_word(), 1);
  // Consumer, when empty:
  //     u32 g = ring.wait_epoch();
  //     ring.park();
  //     if (!ring.empty_approx()) { ring.unpark(); /* consume */ }
  //     else { rt::wait_word_shared_until(ring.doorbell_word(), g, dl);
  //            ring.unpark(); }
  //
  // The seq_cst fence in notify_hint() against the seq_cst park() store
  // closes the lost-wake window: either the consumer's recheck sees the
  // new head, or the producer sees parked == 1 and rings.  The producer
  // clears the flag as it rings, so one park costs at most one wake: the
  // posts that follow before the woken consumer runs see parked == 0.

  /// Producer side: true when a parked consumer needs a wake (the ding
  /// word was bumped).  Call only after a successful try_push.
  bool notify_hint() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (header_->bell.parked.load(std::memory_order_relaxed) == 0 ||
        header_->bell.parked.exchange(0, std::memory_order_relaxed) == 0) {
      return false;
    }
    header_->bell.ding.fetch_add(1, std::memory_order_release);
    return true;
  }

  /// Consumer side: snapshot of the doorbell eventcount to wait against.
  u32 wait_epoch() const {
    return header_->bell.ding.load(std::memory_order_acquire);
  }
  void park() { header_->bell.parked.store(1, std::memory_order_seq_cst); }
  void unpark() { header_->bell.parked.store(0, std::memory_order_relaxed); }
  /// The futex word a sleeping consumer waits on (cross-process safe —
  /// it lives in the shared segment with everything else).
  std::atomic<u32>& doorbell_word() { return header_->bell.ding; }

 private:
  struct alignas(kCacheLine) AlignedIndex {
    std::atomic<u64> value{0};
  };
  static_assert(sizeof(AlignedIndex) == kCacheLine &&
                    alignof(AlignedIndex) == kCacheLine,
                "ring indices must each own a full cache line");

  struct alignas(kCacheLine) Doorbell {
    std::atomic<u32> ding{0};    ///< eventcount; futex word for sleepers
    std::atomic<u32> parked{0};  ///< consumer is (about to be) asleep
  };
  static_assert(sizeof(Doorbell) == kCacheLine,
                "doorbell words share one line (they always move together)");

  struct Header {
    // Identification line: written once at create(), read-only after.
    std::atomic<u64> magic{0};
    u64 capacity = 0;
    u64 element_size = 0;
    unsigned char pad_[kCacheLine - 3 * sizeof(u64)];
    AlignedIndex head;
    AlignedIndex tail;
    Doorbell bell;
  };
  static_assert(sizeof(Header) == 4 * kCacheLine,
                "header = id line + head line + tail line + doorbell line");
  static_assert(std::atomic<u64>::is_always_lock_free,
                "shared-memory indices must be lock-free atomics");

  Header* header_ = nullptr;
  T* slots_ = nullptr;
};

}  // namespace rtseed::common
