// ShardWorker determinism and journal recovery: two workers fed the same
// seq-stream are bit-identical (digest + position), whether or not one
// of them was torn down and journal-recovered in between, and however
// the stream was cut into group-committed batches.
#include "shard/worker.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "lob/flow.hpp"

namespace rtseed::shard {
namespace {

WorkerConfig small_config() {
  WorkerConfig config;
  config.book.min_tick = 1;
  config.book.num_levels = 256;
  config.book.max_orders = 512;
  config.risk.max_order_qty = 0;  // unlimited: every event applies
  config.snapshot_every = 64;
  return config;
}

ShardMessage msg_of(const lob::FlowEvent& ev, u64 seq) {
  ShardMessage msg{};
  msg.kind = MessageKind::kFlow;
  msg.symbol = 1;
  msg.seq = seq;
  msg.body.flow.price_ticks = ev.price;
  msg.body.flow.qty = ev.qty;
  msg.body.flow.flow_kind = static_cast<u32>(ev.kind);
  msg.body.flow.side = static_cast<u32>(ev.side);
  msg.body.flow.pick = ev.pick;
  return msg;
}

/// Applies `count` deterministic flow events starting at seq `first_seq`.
void apply_stream(ShardWorker& worker, u64 seed, u64 first_seq, u64 count,
                  const lob::BookConfig& band) {
  lob::FlowGenerator gen(seed, band);
  // Re-derive the stream prefix so a given (seed, seq) is always the
  // same event regardless of where this worker starts applying.
  for (u64 seq = 1; seq < first_seq; ++seq) (void)gen.next();
  for (u64 seq = first_seq; seq < first_seq + count; ++seq) {
    worker.apply(msg_of(gen.next(), seq));
  }
}

/// The deterministic messages with seqs first..first+count-1.
std::vector<ShardMessage> stream_slice(u64 seed, u64 first_seq, u64 count,
                                       const lob::BookConfig& band) {
  lob::FlowGenerator gen(seed, band);
  for (u64 seq = 1; seq < first_seq; ++seq) (void)gen.next();
  std::vector<ShardMessage> msgs;
  for (u64 seq = first_seq; seq < first_seq + count; ++seq) {
    msgs.push_back(msg_of(gen.next(), seq));
  }
  return msgs;
}

/// Feeds `msgs` to apply_batch() in batches of `batch` messages.
void apply_in_batches(ShardWorker& worker,
                      const std::vector<ShardMessage>& msgs, usize batch) {
  std::vector<const ShardMessage*> ptrs;
  for (const ShardMessage& msg : msgs) ptrs.push_back(&msg);
  for (usize i = 0; i < ptrs.size(); i += batch) {
    worker.apply_batch(ptrs.data() + i, std::min(batch, ptrs.size() - i));
  }
}

TEST(ShardWorker, SameStreamYieldsBitIdenticalState) {
  const WorkerConfig config = small_config();
  auto a = ShardWorker::create(config);
  auto b = ShardWorker::create(config);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());

  apply_stream(**a, 42, 1, 2000, config.book);
  apply_stream(**b, 42, 1, 2000, config.book);

  EXPECT_EQ((*a)->applied_seq(), 2000u);
  EXPECT_EQ((*a)->book_digest(), (*b)->book_digest());
  EXPECT_EQ((*a)->position(), (*b)->position());
  EXPECT_GT((*a)->book().stats().trades, 0u);  // real matching happened
}

TEST(ShardWorker, DuplicateAndStaleSeqsAreSkippedExactlyOnce) {
  auto worker = ShardWorker::create(small_config());
  ASSERT_TRUE(worker.has_value());
  lob::FlowEvent ev;
  ev.kind = lob::FlowKind::kAddLimit;
  ev.side = lob::Side::kBid;
  ev.price = 100;
  ev.qty = 5;

  EXPECT_TRUE((*worker)->apply(msg_of(ev, 1)));
  EXPECT_FALSE((*worker)->apply(msg_of(ev, 1)));  // duplicate
  EXPECT_TRUE((*worker)->apply(msg_of(ev, 2)));
  EXPECT_FALSE((*worker)->apply(msg_of(ev, 1)));  // stale
  EXPECT_EQ((*worker)->deltas_applied(), 2u);
  EXPECT_EQ((*worker)->book().open_orders(), 2u);
}

TEST(ShardWorker, BatchesAndSingleAppliesAgreeAndSkipStaleSeqs) {
  const WorkerConfig config = small_config();
  auto single = ShardWorker::create(config);
  auto batched = ShardWorker::create(config);
  ASSERT_TRUE(single.has_value());
  ASSERT_TRUE(batched.has_value());
  apply_stream(**single, 5, 1, 1000, config.book);

  std::vector<ShardMessage> msgs = stream_slice(5, 1, 1000, config.book);
  // A duplicate inside a batch and a stale seq after it: both skipped.
  msgs.insert(msgs.begin() + 10, msgs[9]);
  msgs.insert(msgs.begin() + 20, msgs[3]);
  std::vector<const ShardMessage*> ptrs;
  for (const ShardMessage& msg : msgs) ptrs.push_back(&msg);
  // One call larger than kMaxBatch: journaled in cap-sized chunks.
  EXPECT_EQ((*batched)->apply_batch(ptrs.data(), ptrs.size()), 1000u);
  EXPECT_EQ((*batched)->apply_batch(ptrs.data(), 50), 0u);  // all stale

  EXPECT_EQ((*batched)->applied_seq(), 1000u);
  EXPECT_EQ((*batched)->deltas_applied(), 1000u);
  EXPECT_EQ((*batched)->book_digest(), (*single)->book_digest());
  EXPECT_EQ((*batched)->position(), (*single)->position());
}

TEST(ShardWorker, PublishMirrorsProgressIntoTheControlLine) {
  auto worker = ShardWorker::create(small_config());
  ASSERT_TRUE(worker.has_value());
  apply_stream(**worker, 7, 1, 100, small_config().book);

  ShardControl control;
  (*worker)->publish(&control, /*with_digest=*/true);
  EXPECT_EQ(control.applied_seq.load(), 100u);
  EXPECT_EQ(control.deltas_applied.load(), 100u);
  EXPECT_EQ(control.book_digest.load(), (*worker)->book_digest());
  EXPECT_EQ(control.position.load(), (*worker)->position());
}

class JournaledWorkerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char templ[] = "/tmp/rtseed_worker_XXXXXX";
    ASSERT_NE(mkdtemp(templ), nullptr);
    dir_ = templ;
  }
  void TearDown() override {
    ::unlink((dir_ + "/w.journal").c_str());
    ::rmdir(dir_.c_str());
  }
  std::string dir_;
};

TEST_F(JournaledWorkerTest, CrashRecoveryConvergesToTheReferenceDigest) {
  WorkerConfig journaled = small_config();
  journaled.journal_path = dir_ + "/w.journal";
  const u64 kSeed = 99;
  const u64 kBeforeCrash = 700;  // not a snapshot multiple: deltas replay
  const u64 kAfterCrash = 800;

  // Reference: one worker, never interrupted, applies the whole stream.
  auto reference = ShardWorker::create(small_config());
  ASSERT_TRUE(reference.has_value());
  apply_stream(**reference, kSeed, 1, kBeforeCrash + kAfterCrash,
               small_config().book);

  {
    // First incarnation: applies the prefix, then "crashes" (dropped
    // without snapshot_now — only the WAL survives).
    auto first = ShardWorker::create(journaled);
    ASSERT_TRUE(first.has_value());
    auto recovered = (*first)->recover();
    ASSERT_TRUE(recovered.has_value());
    apply_stream(**first, kSeed, 1, kBeforeCrash, journaled.book);
  }

  // Second incarnation: journal replay rebuilds the exact pre-crash
  // state, then the remaining stream applies on top.
  auto second = ShardWorker::create(journaled);
  ASSERT_TRUE(second.has_value());
  auto recovered = (*second)->recover();
  ASSERT_TRUE(recovered.has_value()) << recovered.status().to_string();
  EXPECT_GT(recovered->snapshot_seq, 0u);  // periodic snapshot engaged
  EXPECT_GT(recovered->deltas_replayed, 0u);
  EXPECT_EQ((*second)->applied_seq(), kBeforeCrash);

  apply_stream(**second, kSeed, kBeforeCrash + 1, kAfterCrash,
               journaled.book);

  EXPECT_EQ((*second)->book_digest(), (*reference)->book_digest());
  EXPECT_EQ((*second)->position(), (*reference)->position());
  EXPECT_EQ((*second)->applied_seq(), (*reference)->applied_seq());
}

TEST_F(JournaledWorkerTest, RingReplayAfterRecoveryIsExactlyOnce) {
  WorkerConfig journaled = small_config();
  journaled.journal_path = dir_ + "/w.journal";
  lob::FlowEvent ev;
  ev.kind = lob::FlowKind::kAddLimit;
  ev.side = lob::Side::kAsk;
  ev.price = 120;
  ev.qty = 3;

  {
    auto first = ShardWorker::create(journaled);
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE((*first)->recover().has_value());
    EXPECT_TRUE((*first)->apply(msg_of(ev, 1)));
    EXPECT_TRUE((*first)->apply(msg_of(ev, 2)));
  }
  auto second = ShardWorker::create(journaled);
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE((*second)->recover().has_value());
  // The crash left seqs 1-2 sitting in the ingress ring (journaled but
  // never popped).  Re-delivery must be a no-op.
  EXPECT_FALSE((*second)->apply(msg_of(ev, 1)));
  EXPECT_FALSE((*second)->apply(msg_of(ev, 2)));
  EXPECT_TRUE((*second)->apply(msg_of(ev, 3)));
  EXPECT_EQ((*second)->book().open_orders(), 3u);
}

/// Seqs of the snapshot frames in a journal file, walked frame by frame
/// (32-byte header: u32 magic, u32 kind, u64 seq, u32 payload bytes, u32
/// pad, u64 digest; kind 2 = snapshot).
std::vector<u64> snapshot_seqs(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<u64> seqs;
  struct {
    u32 magic, kind;
    u64 seq;
    u32 payload_bytes, pad;
    u64 digest;
  } header;
  static_assert(sizeof(header) == 32);
  while (in.read(reinterpret_cast<char*>(&header), sizeof(header))) {
    if (header.kind == 2) seqs.push_back(header.seq);
    in.seekg(header.payload_bytes, std::ios::cur);
  }
  return seqs;
}

TEST_F(JournaledWorkerTest, FullTableSnapshotImageIsRefusedAndLeftIntact) {
  WorkerConfig journaled = small_config();
  journaled.journal_path = dir_ + "/w.journal";
  {
    // A digest-valid snapshot frame whose book image is in the full-table
    // format: magic "RTbookSS", then the shape echo, then every cell.
    std::vector<unsigned char> image(4096 + 512 * 48, 0);
    const u64 magic = 0x5254626F'6F6B5353ULL;
    std::memcpy(image.data(), &magic, sizeof(magic));
    auto journal = StateJournal::open(journaled.journal_path);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal
                    ->append_snapshot(7, image.data(), image.size(),
                                      lob::RiskEngine::Snapshot{})
                    .is_ok());
  }
  const auto read_all = [&] {
    std::ifstream in(journaled.journal_path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string before = read_all();
  ASSERT_FALSE(before.empty());

  auto worker = ShardWorker::create(journaled);
  ASSERT_TRUE(worker.has_value());
  auto recovered = (*worker)->recover();
  ASSERT_FALSE(recovered.has_value());
  EXPECT_EQ(recovered.status().code(), common::ErrorCode::kFailedPrecondition);
  EXPECT_EQ((*worker)->applied_seq(), 0u);
  EXPECT_EQ(read_all(), before);
}

TEST_F(JournaledWorkerTest, SnapshotsLandOnlyOnBatchBoundaries) {
  WorkerConfig journaled = small_config();  // snapshot_every = 64
  journaled.journal_path = dir_ + "/w.journal";
  constexpr usize kBatch = 50;
  auto worker = ShardWorker::create(journaled);
  ASSERT_TRUE(worker.has_value());
  ASSERT_TRUE((*worker)->recover().has_value());
  apply_in_batches(**worker, stream_slice(11, 1, 1000, journaled.book),
                   kBatch);

  const std::vector<u64> seqs = snapshot_seqs(journaled.journal_path);
  // 64 deltas are reached after every second batch.
  EXPECT_EQ(seqs.size(), 1000 / (2 * kBatch));
  for (const u64 seq : seqs) {
    EXPECT_EQ(seq % kBatch, 0u) << "snapshot at seq " << seq
                                << " is not a batch end";
  }
}

TEST_F(JournaledWorkerTest, CrashBetweenAppendAndRingCommitConverges) {
  WorkerConfig journaled = small_config();
  journaled.journal_path = dir_ + "/w.journal";
  constexpr usize kBatch = 50;
  const u64 kSeed = 23;
  const std::vector<ShardMessage> all =
      stream_slice(kSeed, 1, 1500, journaled.book);
  const std::vector<ShardMessage> before(all.begin(), all.begin() + 600);
  // The batch in flight at the crash, and what follows it.
  const std::vector<ShardMessage> in_flight(all.begin() + 600,
                                            all.begin() + 600 + kBatch);
  const std::vector<ShardMessage> after(all.begin() + 600 + kBatch,
                                        all.end());

  auto reference = ShardWorker::create(small_config());
  ASSERT_TRUE(reference.has_value());
  apply_stream(**reference, kSeed, 1, 1500, small_config().book);

  {
    auto first = ShardWorker::create(journaled);
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE((*first)->recover().has_value());
    apply_in_batches(**first, before, kBatch);
    // Crash after the group commit reached the journal, before the book
    // moved and before the ring slots were committed.
    std::vector<const ShardMessage*> ptrs;
    for (const ShardMessage& msg : in_flight) ptrs.push_back(&msg);
    ASSERT_TRUE(
        (*first)->journal()->append_deltas(ptrs.data(), ptrs.size()).is_ok());
  }

  auto second = ShardWorker::create(journaled);
  ASSERT_TRUE(second.has_value());
  auto recovered = (*second)->recover();
  ASSERT_TRUE(recovered.has_value()) << recovered.status().to_string();
  EXPECT_EQ(recovered->snapshot_seq, 600u);  // last batch end before it
  EXPECT_EQ(recovered->deltas_replayed, kBatch);
  EXPECT_EQ((*second)->applied_seq(), 600u + kBatch);

  // The uncommitted ring slots are delivered again: exactly-once skips
  // the whole batch, then the stream continues.
  apply_in_batches(**second, in_flight, kBatch);
  EXPECT_EQ((*second)->applied_seq(), 600u + kBatch);
  apply_in_batches(**second, after, kBatch);

  EXPECT_EQ((*second)->book_digest(), (*reference)->book_digest());
  EXPECT_EQ((*second)->position(), (*reference)->position());
  EXPECT_EQ((*second)->applied_seq(), (*reference)->applied_seq());
}

}  // namespace
}  // namespace rtseed::shard
