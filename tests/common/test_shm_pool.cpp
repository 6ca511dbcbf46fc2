// Single-process tests of the shared-memory message pool's free-list
// algorithm; the cross-process path is covered through ShardTransport.
#include "common/shm_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "common/cacheline.hpp"

namespace rtseed::common {
namespace {

struct Msg {
  u64 seq = 0;
  double payload[6] = {};
};

// Cache-line-aligned backing bytes standing in for a mapped segment.
class PoolBytes {
 public:
  explicit PoolBytes(usize capacity)
      : lines_(ShmMessagePool<Msg>::required_bytes(capacity) / kCacheLine),
        pool_(ShmMessagePool<Msg>::create(lines_.data(), capacity)) {}
  PoolBytes(const PoolBytes&) = delete;  // pool_ views lines_' storage
  PoolBytes& operator=(const PoolBytes&) = delete;
  ShmMessagePool<Msg>* operator->() { return &pool_; }

 private:
  struct alignas(kCacheLine) Line {
    unsigned char bytes[kCacheLine];
  };
  std::vector<Line> lines_;
  ShmMessagePool<Msg> pool_;
};

TEST(ShmMessagePool, AcquireReleaseRoundTrip) {
  PoolBytes pool(8);
  EXPECT_EQ(pool->capacity(), 8u);
  Msg* m = pool->acquire();
  ASSERT_NE(m, nullptr);
  m->seq = 42;
  EXPECT_EQ(pool->in_use_approx(), 1u);
  const auto idx = pool->index_of(m);
  EXPECT_EQ(pool->at(idx), m);
  pool->release(m);
  EXPECT_EQ(pool->in_use_approx(), 0u);
}

TEST(ShmMessagePool, ExhaustionReturnsNullAndCounts) {
  PoolBytes pool(4);
  std::vector<Msg*> held;
  for (int i = 0; i < 4; ++i) {
    Msg* m = pool->acquire();
    ASSERT_NE(m, nullptr);
    held.push_back(m);
  }
  EXPECT_EQ(pool->acquire(), nullptr);
  EXPECT_EQ(pool->acquire(), nullptr);
  EXPECT_EQ(pool->exhausted(), 2u);
  // Releasing one makes exactly one acquire succeed again.
  pool->release(held.back());
  held.pop_back();
  Msg* again = pool->acquire();
  EXPECT_NE(again, nullptr);
  EXPECT_EQ(pool->acquire(), nullptr);
  EXPECT_EQ(pool->exhausted(), 3u);
}

TEST(ShmMessagePool, CellsAreDistinctAndReused) {
  PoolBytes pool(16);
  std::set<Msg*> first;
  std::vector<Msg*> held;
  for (int i = 0; i < 16; ++i) {
    Msg* m = pool->acquire();
    first.insert(m);
    held.push_back(m);
  }
  EXPECT_EQ(first.size(), 16u);  // no cell handed out twice
  for (Msg* m : held) pool->release(m);
  // The same storage comes back — the pool never grows.
  for (int i = 0; i < 16; ++i) {
    Msg* m = pool->acquire();
    EXPECT_TRUE(first.count(m)) << "reacquired cell outside original block";
  }
}

TEST(ShmMessagePool, CellsAreCacheLineAligned) {
  PoolBytes pool(8);
  std::vector<Msg*> held;
  for (int i = 0; i < 8; ++i) held.push_back(pool->acquire());
  std::sort(held.begin(), held.end());
  for (Msg* m : held) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m) % kCacheLine, 0u);
  }
  // Adjacent cells must not share a destructive-interference line.
  for (size_t i = 1; i < held.size(); ++i) {
    const auto gap = reinterpret_cast<std::uintptr_t>(held[i]) -
                     reinterpret_cast<std::uintptr_t>(held[i - 1]);
    EXPECT_GE(gap, static_cast<std::uintptr_t>(kCacheLine));
  }
}

TEST(ShmMessagePool, IndexHandlesSurviveTheRing) {
  PoolBytes pool(8);
  Msg* m = pool->acquire();
  m->seq = 7;
  const ShmMessagePool<Msg>::Index idx = pool->index_of(m);
  // ...index crosses a ShmSpscRing<u32> here...
  EXPECT_EQ(pool->at(idx)->seq, 7u);
  pool->release_index(idx);
  EXPECT_EQ(pool->in_use_approx(), 0u);
}

TEST(ShmMessagePool, ConcurrentAcquireReleaseStress) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 20000;
  PoolBytes pool(kThreads * 2);
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool, &failed, t] {
      for (int i = 0; i < kRounds; ++i) {
        Msg* m = pool->acquire();
        if (m == nullptr) continue;  // transient exhaustion is legal
        m->seq = static_cast<u64>(t) << 32 | static_cast<u64>(i);
        if (m->seq != (static_cast<u64>(t) << 32 | static_cast<u64>(i))) {
          failed.store(true);
        }
        pool->release(m);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(pool->in_use_approx(), 0u);
  // Every cell must still be acquirable — the free list survived the race.
  std::vector<Msg*> all;
  for (usize i = 0; i < pool->capacity(); ++i) {
    Msg* m = pool->acquire();
    ASSERT_NE(m, nullptr) << "free list lost a cell at " << i;
    all.push_back(m);
  }
  EXPECT_EQ(std::set<Msg*>(all.begin(), all.end()).size(), all.size());
}

TEST(ShmMessagePool, ReleaseNReturnsTheBatchAsOneChain) {
  PoolBytes pool(8);
  std::vector<Msg*> held;
  for (int i = 0; i < 8; ++i) held.push_back(pool->acquire());
  EXPECT_EQ(pool->in_use_approx(), 8u);
  Msg* batch[3] = {held[5], held[1], held[6]};
  pool->release_n(batch, 3);
  EXPECT_EQ(pool->in_use_approx(), 5u);
  pool->release_n(batch, 0);  // an empty batch is a no-op
  EXPECT_EQ(pool->in_use_approx(), 5u);
  // LIFO: the chain comes back front first, then the pool is dry again.
  EXPECT_EQ(pool->acquire(), held[5]);
  EXPECT_EQ(pool->acquire(), held[1]);
  EXPECT_EQ(pool->acquire(), held[6]);
  EXPECT_EQ(pool->acquire(), nullptr);
}

// One thread frees in batches (the shard worker's release_n) while
// others acquire and free one by one: the chain push must splice into
// the free list without losing or duplicating a cell.
TEST(ShmMessagePool, ConcurrentBatchReleaseStress) {
  constexpr int kSingles = 2;
  constexpr int kRounds = 20000;
  constexpr usize kBatch = 4;
  PoolBytes pool(16);
  std::vector<std::thread> workers;
  workers.emplace_back([&pool] {
    Msg* batch[kBatch];
    for (int i = 0; i < kRounds; ++i) {
      usize n = 0;
      while (n < kBatch) {
        Msg* m = pool->acquire();
        if (m == nullptr) break;  // transient exhaustion is legal
        batch[n++] = m;
      }
      pool->release_n(batch, n);
    }
  });
  for (int t = 0; t < kSingles; ++t) {
    workers.emplace_back([&pool] {
      for (int i = 0; i < kRounds; ++i) {
        if (Msg* m = pool->acquire()) pool->release(m);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(pool->in_use_approx(), 0u);
  std::vector<Msg*> all;
  for (usize i = 0; i < pool->capacity(); ++i) {
    Msg* m = pool->acquire();
    ASSERT_NE(m, nullptr) << "free list lost a cell at " << i;
    all.push_back(m);
  }
  EXPECT_EQ(std::set<Msg*>(all.begin(), all.end()).size(), all.size());
}

}  // namespace
}  // namespace rtseed::common
