#include "shard/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "fault/injector.hpp"

namespace rtseed::shard {

namespace {

constexpr u32 kRecordMagic = 0x524A4E32u;  // "RJN2"
/// The byte-wise-digest format's magic: its digests never verify under
/// the word-wise digest, so recover() refuses such a file outright.
constexpr u32 kLegacyRecordMagic = 0x524A4E4Cu;  // "RJNL"
constexpr u32 kKindDelta = 1;
constexpr u32 kKindSnapshot = 2;

/// 32-byte frame ahead of every payload.  The digest covers kind, seq,
/// payload size, and the payload bytes — a record is either completely
/// valid or completely ignored.
struct RecordHeader {
  u32 magic = 0;
  u32 kind = 0;
  u64 seq = 0;
  u32 payload_bytes = 0;
  u32 pad = 0;
  u64 digest = 0;
};
static_assert(sizeof(RecordHeader) == 32, "stable on-disk frame");

/// Snapshot payload = this prefix + the raw book image.
struct SnapshotPrefix {
  lob::RiskEngine::Snapshot risk;
  u64 book_bytes = 0;
};
static_assert(std::is_trivially_copyable_v<SnapshotPrefix>);
// The word-wise digest of prefix-then-image equals that of the
// concatenated payload recover() reads back only if the split falls on a
// word boundary.
static_assert(sizeof(SnapshotPrefix) % 8 == 0);

constexpr usize kDeltaFrameBytes = sizeof(RecordHeader) + sizeof(ShardMessage);

constexpr u64 kFnvPrime = 0x100000001B3ULL;

u64 fnv1a_init() { return 0xCBF29CE484222325ULL; }
/// FNV-1a over 8-byte words, then the byte tail.  Each step (xor in a
/// word, multiply by the odd prime) is a bijection of the running hash,
/// so changing any single word of a record changes its digest.
u64 fnv1a(u64 h, const void* data, usize bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (; bytes >= sizeof(u64); p += sizeof(u64), bytes -= sizeof(u64)) {
    u64 word;
    std::memcpy(&word, p, sizeof(word));
    h ^= word;
    h *= kFnvPrime;
  }
  for (; bytes > 0; ++p, --bytes) {
    h ^= *p;
    h *= kFnvPrime;
  }
  return h;
}

RecordHeader make_header(u32 kind, u64 seq, const void* payload_a,
                         usize bytes_a, const void* payload_b,
                         usize bytes_b) {
  RecordHeader header;
  header.magic = kRecordMagic;
  header.kind = kind;
  header.seq = seq;
  header.payload_bytes = static_cast<u32>(bytes_a + bytes_b);
  u64 h = fnv1a_init();
  h = fnv1a(h, &header.kind, sizeof(header.kind));
  h = fnv1a(h, &header.seq, sizeof(header.seq));
  h = fnv1a(h, &header.payload_bytes, sizeof(header.payload_bytes));
  if (bytes_a > 0) h = fnv1a(h, payload_a, bytes_a);
  if (bytes_b > 0) h = fnv1a(h, payload_b, bytes_b);
  header.digest = h;
  return header;
}

/// writev(2) with EINTR retry; a short write continues from where it
/// stopped (regular-file writes are short only on ENOSPC-class errors).
bool writev_fully(int fd, iovec* iov, int count) {
  while (count > 0) {
    const ssize_t n = ::writev(fd, iov, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    auto done = static_cast<usize>(n);
    while (count > 0 && done >= iov->iov_len) {
      done -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<unsigned char*>(iov->iov_base) + done;
      iov->iov_len -= done;
    }
  }
  return true;
}

bool pread_fully(int fd, void* data, usize bytes, usize offset) {
  auto* p = static_cast<unsigned char*>(data);
  usize done = 0;
  while (done < bytes) {
    const ssize_t n = ::pread(fd, p + done, bytes - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF mid-record: torn tail
    done += static_cast<usize>(n);
  }
  return true;
}

}  // namespace

StateJournal::~StateJournal() {
  if (fd_ >= 0) ::close(fd_);
}

StateJournal& StateJournal::operator=(StateJournal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    options_ = other.options_;
    fd_ = std::exchange(other.fd_, -1);
    write_offset_ = other.write_offset_;
    scratch_ = std::move(other.scratch_);
    scratch_bytes_ = other.scratch_bytes_;
    poisoned_ = other.poisoned_;
    torn_appends_ = other.torn_appends_;
  }
  return *this;
}

common::Expected<StateJournal> StateJournal::open(const std::string& path,
                                                  const Options& options) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return common::internal_error("journal open failed: " +
                                  std::string(std::strerror(errno)));
  }
  StateJournal journal;
  journal.path_ = path;
  journal.options_ = options;
  journal.fd_ = fd;
  // One buffer serves recover() (a whole snapshot payload) and
  // append_deltas() (a whole batch of frames).
  journal.scratch_bytes_ =
      std::max(sizeof(RecordHeader) + sizeof(SnapshotPrefix) +
                   options.max_book_image_bytes,
               kMaxBatch * kDeltaFrameBytes);
  journal.scratch_ = std::make_unique<unsigned char[]>(journal.scratch_bytes_);
  const off_t end = ::lseek(fd, 0, SEEK_END);
  journal.write_offset_ = end > 0 ? static_cast<usize>(end) : 0;
  return journal;
}

common::Expected<StateJournal::RecoverResult> StateJournal::recover(
    SnapshotSink on_snapshot, DeltaSink on_delta) {
  if (!valid()) return common::failed_precondition("journal not open");
  RecoverResult result;

  const off_t end_off = ::lseek(fd_, 0, SEEK_END);
  const usize file_bytes = end_off > 0 ? static_cast<usize>(end_off) : 0;

  // Pass 1: walk the frames, digest-checking each, remembering the
  // offset of the newest valid snapshot and where validity ends.
  usize offset = 0;
  usize valid_end = 0;
  usize snapshot_offset = 0;
  bool have_snapshot = false;
  while (offset + sizeof(RecordHeader) <= file_bytes) {
    RecordHeader header;
    if (!pread_fully(fd_, &header, sizeof(header), offset)) break;
    if (header.magic != kRecordMagic) {
      if (offset == 0 && header.magic == kLegacyRecordMagic) {
        return common::failed_precondition(
            "journal: RJNL-format file (byte-wise digest) refused, left "
            "intact");
      }
      break;
    }
    if (header.payload_bytes > scratch_bytes_) break;
    if (offset + sizeof(header) + header.payload_bytes > file_bytes) break;
    if (!pread_fully(fd_, scratch_.get(), header.payload_bytes,
                     offset + sizeof(header))) {
      break;
    }
    if (make_header(header.kind, header.seq, scratch_.get(),
                    header.payload_bytes, nullptr, 0)
            .digest != header.digest) {
      break;
    }
    if (header.kind == kKindSnapshot) {
      snapshot_offset = offset;
      have_snapshot = true;
    } else if (header.kind != kKindDelta) {
      break;  // unknown kind: stop trusting the file here
    }
    result.last_seq = header.seq;
    offset += sizeof(header) + header.payload_bytes;
    valid_end = offset;
  }
  result.tail_truncated = valid_end < file_bytes;

  // Pass 2: deliver the snapshot, then every delta after it.
  if (have_snapshot) {
    RecordHeader header;
    pread_fully(fd_, &header, sizeof(header), snapshot_offset);
    pread_fully(fd_, scratch_.get(), header.payload_bytes,
                snapshot_offset + sizeof(header));
    if (header.payload_bytes < sizeof(SnapshotPrefix)) {
      return common::failed_precondition("journal: snapshot frame too small");
    }
    SnapshotPrefix prefix;
    std::memcpy(&prefix, scratch_.get(), sizeof(prefix));
    if (sizeof(SnapshotPrefix) + prefix.book_bytes != header.payload_bytes) {
      return common::failed_precondition(
          "journal: snapshot prefix disagrees with frame size");
    }
    result.snapshot_seq = header.seq;
    if (auto st = on_snapshot(header.seq,
                              scratch_.get() + sizeof(SnapshotPrefix),
                              static_cast<usize>(prefix.book_bytes),
                              prefix.risk);
        !st) {
      return st;
    }
  }
  usize replay_offset = have_snapshot ? snapshot_offset : 0;
  if (have_snapshot) {
    RecordHeader header;
    pread_fully(fd_, &header, sizeof(header), snapshot_offset);
    replay_offset = snapshot_offset + sizeof(header) + header.payload_bytes;
  }
  while (replay_offset < valid_end) {
    RecordHeader header;
    pread_fully(fd_, &header, sizeof(header), replay_offset);
    pread_fully(fd_, scratch_.get(), header.payload_bytes,
                replay_offset + sizeof(header));
    if (header.kind == kKindDelta) {
      if (header.payload_bytes != sizeof(ShardMessage)) {
        return common::failed_precondition("journal: delta frame size");
      }
      ShardMessage msg;
      std::memcpy(&msg, scratch_.get(), sizeof(msg));
      on_delta(msg);
      ++result.deltas_replayed;
    }
    replay_offset += sizeof(header) + header.payload_bytes;
  }

  // Cut the torn tail so new appends start on a frame boundary.
  if (result.tail_truncated) {
    if (::ftruncate(fd_, static_cast<off_t>(valid_end)) != 0) {
      return common::internal_error("journal: tail truncate failed");
    }
  }
  ::lseek(fd_, static_cast<off_t>(valid_end), SEEK_SET);
  write_offset_ = valid_end;
  return result;
}

common::Status StateJournal::write_frames(iovec* iov, int count,
                                          usize bytes) {
  if (!writev_fully(fd_, iov, count)) {
    return common::internal_error("journal append failed");
  }
  write_offset_ += bytes;
  if (options_.sync_each_append) ::fdatasync(fd_);
  return common::Status::ok();
}

common::Status StateJournal::tear(iovec* iov, int count) {
  poisoned_ = true;
  ++torn_appends_;
  (void)writev_fully(fd_, iov, count);
  return common::internal_error("journal torn by injection");
}

common::Status StateJournal::append_deltas(const ShardMessage* const* msgs,
                                           usize count) {
  if (!valid()) return common::failed_precondition("journal not open");
  if (poisoned_) return common::internal_error("journal poisoned (torn)");
  if (count > kMaxBatch) {
    return common::invalid_argument("journal: batch exceeds kMaxBatch");
  }
  unsigned char* out = scratch_.get();
  for (usize i = 0; i < count; ++i) {
    const ShardMessage& msg = *msgs[i];
    const RecordHeader header =
        make_header(kKindDelta, msg.seq, &msg, sizeof(msg), nullptr, 0);
    std::memcpy(out, &header, sizeof(header));
    std::memcpy(out + sizeof(header), &msg, sizeof(msg));
    // Chaos: die mid-append at this frame — the frames before it whole,
    // this one cut halfway through its payload.  Recovery must treat the
    // result exactly like a SIGKILL in the middle of the batch's write.
    if (fault::try_fire(fault::InjectPoint::kJournalTruncate)) {
      iovec torn{scratch_.get(), i * kDeltaFrameBytes + sizeof(header) +
                                     sizeof(msg) / 2};
      return tear(&torn, 1);
    }
    out += kDeltaFrameBytes;
  }
  const usize bytes = count * kDeltaFrameBytes;
  iovec frames{scratch_.get(), bytes};
  return write_frames(&frames, 1, bytes);
}

common::Status StateJournal::append_snapshot(
    u64 seq, const void* book_image, usize book_bytes,
    const lob::RiskEngine::Snapshot& risk) {
  if (!valid()) return common::failed_precondition("journal not open");
  if (poisoned_) return common::internal_error("journal poisoned (torn)");
  if (book_bytes > options_.max_book_image_bytes) {
    return common::invalid_argument("journal: book image exceeds option cap");
  }
  SnapshotPrefix prefix;
  prefix.risk = risk;
  prefix.book_bytes = book_bytes;
  RecordHeader header = make_header(kKindSnapshot, seq, &prefix,
                                    sizeof(prefix), book_image, book_bytes);
  iovec iov[3] = {{&header, sizeof(header)},
                  {&prefix, sizeof(prefix)},
                  {const_cast<void*>(book_image), book_bytes}};
  // Chaos: the header and half the prefix, then death (see append_deltas).
  if (fault::try_fire(fault::InjectPoint::kJournalTruncate)) {
    iov[1].iov_len /= 2;
    return tear(iov, 2);
  }
  return write_frames(iov, 3, sizeof(header) + sizeof(prefix) + book_bytes);
}

}  // namespace rtseed::shard
