// ShardWorker — one shard's recoverable trading state machine
// (DESIGN.md §14.2).
//
// The worker owns a lob::BitmapBook and a lob::RiskEngine and applies
// kFlow ShardMessages to them in BATCHES under the write-ahead
// discipline (group commit):
//
//   peek every queued message (up to kMaxBatch)
//     → journal all their deltas in one write(2) → apply them in order
//     → commit the ring slots → release the cells (one CAS)
//
// plus a full snapshot (book image + risk POD) once snapshot_every
// deltas have accumulated, so replay cost stays bounded.  The book image
// holds only the order table's live prefix (BitmapBook::high_water()), so
// a snapshot costs what the book holds, not what it could hold; the
// snapshot buffer and the journal's scratch are sized once, for the
// largest image (max_snapshot_bytes()).  Snapshots are
// taken only at a batch boundary, after the whole batch is applied: a
// snapshot written mid-batch would sit in the file AFTER deltas it does
// not include, and replay would then skip those deltas for good once the
// ring slots were committed.  apply(msg) is simply a batch of one.
//
// Exactly-once across crashes comes from the per-shard monotonic message
// seq: a message whose seq is not greater than the last accepted one is
// skipped, so ring entries that were journaled before the crash (but not
// yet committed) are recognized and dropped on replay.
//
// Everything the message stream decides is a pure function of book
// content — cancel/replace victims come from BitmapBook::front_order(),
// fills update the risk engine from the taker's perspective, the mark
// follows the post-event mid.  Two workers fed the same seq-stream are
// therefore bit-identical (same digest, same position), whether one of
// them was SIGKILLed and recovered in between or not, and however the
// stream was cut into batches.  That equivalence is exactly what
// tests/shard/test_process_runtime.cpp asserts.
//
// Fork discipline: create() (which allocates the book, scratch buffers,
// and opens the journal) runs in the supervising PARENT before fork; the
// child only ever calls recover()/apply_batch()/publish(), which are
// allocation-free.
#pragma once

#include <memory>
#include <string>

#include "common/status.hpp"
#include "lob/book.hpp"
#include "lob/risk.hpp"
#include "shard/journal.hpp"
#include "shard/message.hpp"
#include "shard/transport.hpp"

namespace rtseed::shard {

struct WorkerConfig {
  lob::BookConfig book;
  lob::RiskConfig risk;
  /// Journal file path; empty = unjournaled (an in-process reference
  /// worker, or a deployment that accepts state loss on crash).
  std::string journal_path;
  StateJournal::Options journal;
  /// Deltas between full snapshots (bounds replay length).
  u64 snapshot_every = 1024;
};

class ShardWorker {
 public:
  /// Most messages one group commit journals (one write(2)).
  static constexpr usize kMaxBatch = StateJournal::kMaxBatch;

  /// Allocates the book/risk/journal.  Parent-side, before fork.
  static common::Expected<std::unique_ptr<ShardWorker>> create(
      const WorkerConfig& config);

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Replays the journal into the book/risk (latest snapshot + deltas
  /// after it).  Call once, before the first apply().  Allocation-free.
  common::Expected<StateJournal::RecoverResult> recover();

  /// Applies msgs[0..count) under the write-ahead discipline, group-
  /// committing up to kMaxBatch deltas per journal write.  Returns how
  /// many messages advanced state; duplicates (seq <= the last accepted
  /// seq — the exactly-once skip) and non-flow kinds do not.
  usize apply_batch(const ShardMessage* const* msgs, usize count);

  /// A batch of one: true when the message advanced state.
  bool apply(const ShardMessage& msg) {
    const ShardMessage* one = &msg;
    return apply_batch(&one, 1) == 1;
  }

  /// Publishes progress words for the parent-side supervisor: applied
  /// seq, deltas, position — and, when `with_digest`, the book digest
  /// (O(book size): only on request/exit, never per message).
  void publish(ShardControl* control, bool with_digest) const;

  u64 applied_seq() const { return applied_seq_; }
  u64 deltas_applied() const { return deltas_applied_; }
  u64 book_digest() const { return book_->digest(); }
  lob::Qty position() const { return risk_.position(); }
  const lob::BitmapBook& book() const { return *book_; }
  const lob::RiskEngine& risk() const { return risk_; }
  StateJournal* journal() { return journaled_ ? &journal_ : nullptr; }

  /// Forces a snapshot record now (clean-shutdown path).
  common::Status snapshot_now();

 private:
  explicit ShardWorker(const WorkerConfig& config);

  void apply_flow(const ShardMessage& msg);

  WorkerConfig config_;
  std::unique_ptr<lob::BitmapBook> book_;
  lob::RiskEngine risk_;
  StateJournal journal_;
  bool journaled_ = false;
  u64 applied_seq_ = 0;
  u64 deltas_applied_ = 0;
  u64 deltas_since_snapshot_ = 0;
  std::unique_ptr<unsigned char[]> snapshot_buf_;
  usize snapshot_buf_bytes_ = 0;
};

}  // namespace rtseed::shard
