#include "rt/cpuset.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

namespace rtseed::rt {
namespace {

TEST(CpuSet, StartsEmpty) {
  CpuSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0);
  EXPECT_FALSE(s.contains(0));
}

TEST(CpuSet, AddRemoveContains) {
  CpuSet s;
  s.add(0);
  s.add(3);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(1));
  EXPECT_EQ(s.count(), 2);
  s.remove(0);
  EXPECT_FALSE(s.contains(0));
  EXPECT_EQ(s.count(), 1);
}

TEST(CpuSet, SingleFactory) {
  const CpuSet s = CpuSet::single(2);
  EXPECT_EQ(s.count(), 1);
  EXPECT_TRUE(s.contains(2));
}

TEST(CpuSet, OnlineIsNonEmpty) {
  const CpuSet s = CpuSet::online();
  EXPECT_GE(s.count(), 1);
  EXPECT_TRUE(s.contains(0));
}

TEST(CpuSet, ToString) {
  CpuSet s;
  s.add(1);
  s.add(4);
  EXPECT_EQ(s.to_string(), "{1,4}");
  EXPECT_EQ(CpuSet{}.to_string(), "{}");
}

TEST(CpuSet, Equality) {
  CpuSet a, b;
  a.add(1);
  b.add(1);
  EXPECT_TRUE(a == b);
  b.add(2);
  EXPECT_FALSE(a == b);
}

TEST(CpuSet, Intersects) {
  CpuSet a, b;
  a.add(1);
  a.add(3);
  b.add(2);
  EXPECT_FALSE(a.intersects(b));
  EXPECT_FALSE(a.intersects(CpuSet{}));
  b.add(3);
  EXPECT_TRUE(a.intersects(b));
  EXPECT_TRUE(b.intersects(a));
}

TEST(Affinity, ProcessIdReadsItsMainThread) {
  // gtest runs the test body on the main thread, whose id is the pid.
  const auto own = get_current_affinity();
  const auto by_pid = get_affinity(static_cast<int>(::getpid()));
  ASSERT_TRUE(own.has_value());
  ASSERT_TRUE(by_pid.has_value());
  EXPECT_TRUE(*own == *by_pid);
}

TEST(Affinity, SetToEmptyMaskRejected) {
  const auto st = set_current_affinity(CpuSet{});
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), common::ErrorCode::kInvalidArgument);
}

TEST(Affinity, PinAndReadBack) {
  const auto before = get_current_affinity();
  ASSERT_TRUE(before.has_value());
  const auto st = set_current_affinity(CpuSet::single(0));
  if (st.is_ok()) {
    const auto after = get_current_affinity();
    ASSERT_TRUE(after.has_value());
    EXPECT_TRUE(after->contains(0));
    EXPECT_EQ(after->count(), 1);
    EXPECT_EQ(current_cpu(), 0);
    // Restore.
    ASSERT_TRUE(set_current_affinity(*before).is_ok());
  }
}

}  // namespace
}  // namespace rtseed::rt
