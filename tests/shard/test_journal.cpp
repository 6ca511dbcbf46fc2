// StateJournal: append/recover round trips, snapshot-bounded replay,
// torn-tail truncation, group-committed delta batches, refusal of the
// old record format, and the kJournalTruncate chaos point.
#include "shard/journal.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "fault/injector.hpp"

namespace rtseed::shard {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char templ[] = "/tmp/rtseed_journal_XXXXXX";
    ASSERT_NE(mkdtemp(templ), nullptr);
    dir_ = templ;
    path_ = dir_ + "/shard-0.journal";
  }
  void TearDown() override {
    ::unlink(path_.c_str());
    ::rmdir(dir_.c_str());
  }

  static ShardMessage flow_msg(u64 seq) {
    ShardMessage msg{};
    msg.kind = MessageKind::kFlow;
    msg.symbol = 42;
    msg.seq = seq;
    msg.body.flow.price_ticks = static_cast<i64>(100 + seq);
    msg.body.flow.qty = 7;
    return msg;
  }

  static common::Status append_one(StateJournal& journal,
                                   const ShardMessage& msg) {
    const ShardMessage* one = &msg;
    return journal.append_deltas(&one, 1);
  }

  /// Bytes one delta frame occupies on disk (32-byte header + message).
  static constexpr usize kFrameBytes = 32 + sizeof(ShardMessage);

  /// Messages with seqs first..first+count-1, plus the pointer array
  /// append_deltas() takes.
  struct Batch {
    Batch(u64 first, usize count) {
      for (usize i = 0; i < count; ++i) msgs.push_back(flow_msg(first + i));
      for (const ShardMessage& msg : msgs) ptrs.push_back(&msg);
    }
    std::vector<ShardMessage> msgs;
    std::vector<const ShardMessage*> ptrs;
  };

  usize file_size() const {
    struct stat st {};
    return ::stat(path_.c_str(), &st) == 0 ? static_cast<usize>(st.st_size)
                                           : 0;
  }

  static std::vector<u64> seq_range(u64 first, u64 last) {
    std::vector<u64> seqs;
    for (u64 seq = first; seq <= last; ++seq) seqs.push_back(seq);
    return seqs;
  }

  struct Recovered {
    u64 snapshot_seq = 0;
    std::vector<u64> book_bytes_seen;
    std::vector<u64> delta_seqs;
  };

  static common::Expected<StateJournal::RecoverResult> run_recover(
      StateJournal& journal, Recovered& out) {
    return journal.recover(
        [&](u64 seq, const void* /*image*/, usize bytes,
            const lob::RiskEngine::Snapshot& /*risk*/) {
          out.snapshot_seq = seq;
          out.book_bytes_seen.push_back(bytes);
          return common::Status::ok();
        },
        [&](const ShardMessage& msg) { out.delta_seqs.push_back(msg.seq); });
  }

  std::string dir_;
  std::string path_;
};

TEST_F(JournalTest, RecoversAppendedDeltasInOrder) {
  {
    auto journal = StateJournal::open(path_);
    ASSERT_TRUE(journal.has_value()) << journal.status().to_string();
    for (u64 seq = 1; seq <= 5; ++seq) {
      ASSERT_TRUE(append_one(*journal, flow_msg(seq)).is_ok());
    }
  }
  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  Recovered got;
  auto result = run_recover(*journal, got);
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  EXPECT_EQ(result->snapshot_seq, 0u);
  EXPECT_EQ(result->deltas_replayed, 5u);
  EXPECT_EQ(result->last_seq, 5u);
  EXPECT_FALSE(result->tail_truncated);
  EXPECT_EQ(got.delta_seqs, (std::vector<u64>{1, 2, 3, 4, 5}));
}

TEST_F(JournalTest, SnapshotBoundsReplayToDeltasAfterIt) {
  const unsigned char image[64] = {1, 2, 3};
  lob::RiskEngine::Snapshot risk{};
  risk.position = -3;
  {
    auto journal = StateJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    for (u64 seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(append_one(*journal, flow_msg(seq)).is_ok());
    }
    ASSERT_TRUE(
        journal->append_snapshot(3, image, sizeof(image), risk).is_ok());
    for (u64 seq = 4; seq <= 6; ++seq) {
      ASSERT_TRUE(append_one(*journal, flow_msg(seq)).is_ok());
    }
  }
  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  Recovered got;
  auto result = run_recover(*journal, got);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->snapshot_seq, 3u);
  EXPECT_EQ(result->deltas_replayed, 3u);  // only 4, 5, 6 replay
  EXPECT_EQ(result->last_seq, 6u);
  EXPECT_EQ(got.snapshot_seq, 3u);
  EXPECT_EQ(got.book_bytes_seen, (std::vector<u64>{sizeof(image)}));
  EXPECT_EQ(got.delta_seqs, (std::vector<u64>{4, 5, 6}));
}

TEST_F(JournalTest, LatestOfSeveralSnapshotsWins) {
  const unsigned char image[16] = {};
  lob::RiskEngine::Snapshot risk{};
  {
    auto journal = StateJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(append_one(*journal, flow_msg(1)).is_ok());
    ASSERT_TRUE(
        journal->append_snapshot(1, image, sizeof(image), risk).is_ok());
    ASSERT_TRUE(append_one(*journal, flow_msg(2)).is_ok());
    ASSERT_TRUE(
        journal->append_snapshot(2, image, sizeof(image), risk).is_ok());
    ASSERT_TRUE(append_one(*journal, flow_msg(3)).is_ok());
  }
  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  Recovered got;
  auto result = run_recover(*journal, got);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->snapshot_seq, 2u);
  EXPECT_EQ(got.delta_seqs, (std::vector<u64>{3}));
}

TEST_F(JournalTest, TornTailIsDetectedTruncatedAndAppendableAgain) {
  {
    auto journal = StateJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    for (u64 seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(append_one(*journal, flow_msg(seq)).is_ok());
    }
  }
  {
    // Simulate a crash mid-append: garbage half-record at the tail.
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    const char garbage[13] = "RJNL-partial";
    out.write(garbage, sizeof(garbage));
  }
  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  Recovered got;
  auto result = run_recover(*journal, got);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->tail_truncated);
  EXPECT_EQ(got.delta_seqs, (std::vector<u64>{1, 2, 3}));

  // The tail was cut on a frame boundary: appending and re-recovering
  // yields a clean 4-delta stream.
  ASSERT_TRUE(append_one(*journal, flow_msg(4)).is_ok());
  auto reopened = StateJournal::open(path_);
  ASSERT_TRUE(reopened.has_value());
  Recovered again;
  auto second = run_recover(*reopened, again);
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->tail_truncated);
  EXPECT_EQ(again.delta_seqs, (std::vector<u64>{1, 2, 3, 4}));
}

TEST_F(JournalTest, CorruptedPayloadByteInvalidatesTheRecord) {
  {
    auto journal = StateJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(append_one(*journal, flow_msg(1)).is_ok());
    ASSERT_TRUE(append_one(*journal, flow_msg(2)).is_ok());
  }
  {
    // Flip one byte inside the SECOND record's payload: its digest no
    // longer matches, so recovery must stop after record 1.
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(32 + static_cast<long>(sizeof(ShardMessage)) + 32 + 8);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0xFF);
    f.write(&byte, 1);
  }
  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  Recovered got;
  auto result = run_recover(*journal, got);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->tail_truncated);
  EXPECT_EQ(got.delta_seqs, (std::vector<u64>{1}));
}

TEST_F(JournalTest, InjectedTruncationPoisonsAndRecoversClean) {
  {
    auto journal = StateJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(append_one(*journal, flow_msg(1)).is_ok());

    fault::InjectorConfig chaos;
    chaos.with_rate(fault::InjectPoint::kJournalTruncate, 1.0);
    chaos.max_fires_per_point = 1;
    fault::ScopedInjector injector(chaos);
    // This append dies mid-record and poisons the journal, exactly like
    // a SIGKILL between two write(2) calls.
    EXPECT_FALSE(append_one(*journal, flow_msg(2)).is_ok());
    EXPECT_EQ(journal->torn_appends(), 1u);
    EXPECT_FALSE(append_one(*journal, flow_msg(3)).is_ok());
  }
  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  Recovered got;
  auto result = run_recover(*journal, got);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->tail_truncated);  // the half-written record
  EXPECT_EQ(got.delta_seqs, (std::vector<u64>{1}));
}

TEST_F(JournalTest, GroupCommitRecoversEveryFrameOfTheBatchInOrder) {
  const Batch batch(1, 40);
  {
    auto journal = StateJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->append_deltas(batch.ptrs.data(), 40).is_ok());
    EXPECT_EQ(journal->appended_bytes(), 40 * kFrameBytes);
  }
  EXPECT_EQ(file_size(), 40 * kFrameBytes);  // one frame per message
  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  Recovered got;
  auto result = run_recover(*journal, got);
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  EXPECT_EQ(result->deltas_replayed, 40u);
  EXPECT_EQ(result->last_seq, 40u);
  EXPECT_FALSE(result->tail_truncated);
  EXPECT_EQ(got.delta_seqs, seq_range(1, 40));
}

TEST_F(JournalTest, BatchLargerThanTheCapIsRefusedWhole) {
  const Batch batch(1, StateJournal::kMaxBatch + 1);
  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  EXPECT_FALSE(
      journal->append_deltas(batch.ptrs.data(), batch.ptrs.size()).is_ok());
  EXPECT_EQ(file_size(), 0u);
  EXPECT_TRUE(
      journal->append_deltas(batch.ptrs.data(), StateJournal::kMaxBatch)
          .is_ok());
}

TEST_F(JournalTest, InjectedTruncationMidBatchKeepsExactlyTheValidPrefix) {
  constexpr usize kBatch = 32;
  fault::InjectorConfig chaos;
  chaos.seed = 3;
  chaos.with_rate(fault::InjectPoint::kJournalTruncate, 0.15);
  chaos.max_fires_per_point = 1;
  // The draw is per frame: an identical injector tells which frame of
  // the batch the installed one will tear.
  usize torn_frame = 0;
  {
    fault::Injector probe(chaos);
    while (!probe.fire(fault::InjectPoint::kJournalTruncate)) ++torn_frame;
  }
  ASSERT_GT(torn_frame, 0u) << "pick a seed that tears mid-batch";
  ASSERT_LT(torn_frame, kBatch) << "pick a seed that tears mid-batch";

  const Batch batch(2, kBatch);
  {
    auto journal = StateJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(append_one(*journal, flow_msg(1)).is_ok());
    fault::ScopedInjector injector(chaos);
    EXPECT_FALSE(journal->append_deltas(batch.ptrs.data(), kBatch).is_ok());
    EXPECT_EQ(journal->torn_appends(), 1u);
  }
  // Whole frames before the torn one, then half a frame.
  EXPECT_EQ(file_size(), (1 + torn_frame) * kFrameBytes + 32 +
                             sizeof(ShardMessage) / 2);
  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  Recovered got;
  auto result = run_recover(*journal, got);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->tail_truncated);
  EXPECT_EQ(got.delta_seqs, seq_range(1, 1 + torn_frame));
  EXPECT_EQ(file_size(), (1 + torn_frame) * kFrameBytes);
}

TEST_F(JournalTest, FlippedByteInOneFrameOfABatchStopsRecoveryBeforeIt) {
  constexpr usize kBatch = 8;
  constexpr usize kFlipped = 5;  // frame index within the batch
  const Batch batch(1, kBatch);
  {
    auto journal = StateJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->append_deltas(batch.ptrs.data(), kBatch).is_ok());
  }
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<long>(kFlipped * kFrameBytes + 32 + 20));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x01);
    f.write(&byte, 1);
  }
  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  Recovered got;
  auto result = run_recover(*journal, got);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->tail_truncated);
  EXPECT_EQ(got.delta_seqs, seq_range(1, kFlipped));
}

TEST_F(JournalTest, OldFormatJournalIsRefusedAndLeftIntact) {
  // One frame as the byte-wise-digest format wrote it: magic "RJNL".
  struct {
    u32 magic = 0x524A4E4Cu;
    u32 kind = 1;
    u64 seq = 1;
    u32 payload_bytes = sizeof(ShardMessage);
    u32 pad = 0;
    u64 digest = 0x0123456789ABCDEFULL;
  } header;
  static_assert(sizeof(header) == 32);
  const ShardMessage payload = flow_msg(1);
  {
    std::ofstream out(path_, std::ios::binary);
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out.write(reinterpret_cast<const char*>(&payload), sizeof(payload));
  }
  const auto read_all = [&] {
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string before = read_all();
  ASSERT_EQ(before.size(), kFrameBytes);

  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  Recovered got;
  auto result = run_recover(*journal, got);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.status().code(), common::ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(got.delta_seqs.empty());
  EXPECT_EQ(read_all(), before);
}

}  // namespace
}  // namespace rtseed::shard
