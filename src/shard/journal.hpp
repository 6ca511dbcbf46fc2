// Per-shard write-ahead state journal — the durability half of crash
// recovery (DESIGN.md §14.3).
//
// A journaled shard worker persists two record kinds to an append-only
// file:
//
//   kDelta     one ShardMessage, written BEFORE the message is applied
//              to the book.  Deltas are group-committed: the worker hands
//              over every message it peeked from its ring (up to
//              kMaxBatch), and append_deltas() writes all their frames
//              with ONE write(2) (peek ring → append batch → apply batch
//              → commit ring);
//   kSnapshot  a full (BitmapBook image + RiskEngine::Snapshot) pair,
//              written at a batch boundary once snapshot_every deltas
//              have accumulated, so replay cost stays bounded.
//
// Every record — each delta of a batch too — has its own 32-byte header
// and a digest over its header fields and payload: FNV-1a taken over
// 8-byte words (same prime, byte tail).  Recovery scans the file,
// restores the LATEST digest-valid snapshot, replays the digest-valid
// deltas after it in order, and truncates whatever torn/truncated tail a
// mid-write crash left — a partial record (or a batch torn mid-write,
// which keeps its whole-frame prefix) is EXPECTED after SIGKILL, never an
// error.  Combined with the per-message seq (replayed messages with
// seq <= applied are skipped at the worker), recovery is exactly-once:
// the rebuilt book digest equals a never-crashed reference bit for bit.
//
// Frames carry the magic "RJN2".  A file whose first frame carries the
// byte-wise-digest format's "RJNL" is refused (failed_precondition, file
// untouched) instead of being read as one long torn tail and cut to 0.
//
// Process-crash durability only: records go through write(2) into the
// page cache, which survives the worker dying by any signal.  Machine-
// crash durability would need fdatasync per append (Options::sync_each_
// append) and is off by default — the supervisor, not the disk, is the
// failure domain here.
//
// Fork discipline: open() and the scratch buffer allocation happen in
// the PARENT before fork; the child inherits the fd and builds its delta
// frames in the preallocated buffer — no malloc after fork (the parent's
// other threads may hold the heap lock at fork time).
#pragma once

#include <sys/uio.h>

#include <memory>
#include <string>

#include "common/inplace_function.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "lob/risk.hpp"
#include "shard/message.hpp"

namespace rtseed::shard {

using common::usize;

class StateJournal {
 public:
  /// Most delta frames one append_deltas() call takes.  open() sizes the
  /// scratch buffer to hold at least this many frames.
  static constexpr usize kMaxBatch = 256;

  struct Options {
    /// Upper bound on one snapshot's book-image bytes; sizes the scratch
    /// buffer (allocated once, at open).
    usize max_book_image_bytes = 1 << 20;
    /// fdatasync after every append (machine-crash durability; slow).
    bool sync_each_append = false;
  };

  /// What recover() found and did.
  struct RecoverResult {
    u64 snapshot_seq = 0;    ///< seq of the restored snapshot (0 = none)
    u64 deltas_replayed = 0; ///< valid deltas delivered after the snapshot
    u64 last_seq = 0;        ///< highest seq made durable before the crash
    bool tail_truncated = false;  ///< a torn/partial tail record was cut
  };

  /// Restores state during recover(): the latest valid snapshot record.
  using SnapshotSink = common::FunctionRef<common::Status(
      u64 seq, const void* book_image, usize book_bytes,
      const lob::RiskEngine::Snapshot& risk)>;
  /// Applies one journaled delta during recover().
  using DeltaSink = common::FunctionRef<void(const ShardMessage& msg)>;

  StateJournal() = default;
  ~StateJournal();
  StateJournal(StateJournal&& other) noexcept { *this = std::move(other); }
  StateJournal& operator=(StateJournal&& other) noexcept;
  StateJournal(const StateJournal&) = delete;
  StateJournal& operator=(const StateJournal&) = delete;

  /// Opens (creating if absent) the journal at `path`.  Never truncates
  /// existing content — recover() decides what is valid.
  static common::Expected<StateJournal> open(const std::string& path,
                                             const Options& options);
  static common::Expected<StateJournal> open(const std::string& path) {
    return open(path, Options{});
  }

  bool valid() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Scans the whole file, delivers the latest digest-valid snapshot to
  /// `on_snapshot` (if any), then every digest-valid delta after it (in
  /// write order) to `on_delta`; finally truncates any torn tail and
  /// positions the journal for appending.  Call once, before appending.
  common::Expected<RecoverResult> recover(SnapshotSink on_snapshot,
                                          DeltaSink on_delta);

  /// Appends msgs[0..count) (count <= kMaxBatch) as write-ahead deltas,
  /// one frame per message keyed by its seq, all in ONE write(2).
  /// Allocation-free.
  common::Status append_deltas(const ShardMessage* const* msgs, usize count);

  /// Appends a full state snapshot.  `book_image` must be at most
  /// Options::max_book_image_bytes.
  common::Status append_snapshot(u64 seq, const void* book_image,
                                 usize book_bytes,
                                 const lob::RiskEngine::Snapshot& risk);

  /// Chaos counter: appends that the kJournalTruncate injection point
  /// (drawn once per frame) turned into torn half-writes (the journal
  /// poisons itself after one — a real crashed writer never writes
  /// again either).
  u64 torn_appends() const { return torn_appends_; }
  u64 appended_bytes() const { return static_cast<u64>(write_offset_); }

 private:
  /// Writes `bytes` of whole frames, then advances the append offset.
  common::Status write_frames(iovec* iov, int count, usize bytes);
  /// Chaos: writes a frame prefix that ends mid-record and poisons the
  /// journal.
  common::Status tear(iovec* iov, int count);

  std::string path_;
  Options options_;
  int fd_ = -1;
  usize write_offset_ = 0;
  std::unique_ptr<unsigned char[]> scratch_;
  usize scratch_bytes_ = 0;
  bool poisoned_ = false;  ///< a torn append happened; writes stop
  u64 torn_appends_ = 0;
};

}  // namespace rtseed::shard
