#include "db/buffer_pool.h"

#include <gtest/gtest.h>

namespace kairos::db {
namespace {

TEST(BufferPoolTest, MissThenHit) {
  BufferPool pool(10);
  TouchResult r = pool.Touch(1, false);
  EXPECT_FALSE(r.hit);
  r = pool.Touch(1, false);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.logical_reads(), 2u);
}

TEST(BufferPoolTest, LruEvictionOrder) {
  BufferPool pool(2);
  pool.Touch(1, false);
  pool.Touch(2, false);
  const TouchResult r = pool.Touch(3, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_page, 1u);
  EXPECT_FALSE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(2));
}

TEST(BufferPoolTest, TouchPromotes) {
  BufferPool pool(2);
  pool.Touch(1, false);
  pool.Touch(2, false);
  pool.Touch(1, false);  // promote 1
  const TouchResult r = pool.Touch(3, false);
  EXPECT_EQ(r.evicted_page, 2u);
  EXPECT_TRUE(pool.Contains(1));
}

TEST(BufferPoolTest, DirtyTracking) {
  BufferPool pool(10);
  TouchResult r = pool.Touch(1, true);
  EXPECT_TRUE(r.newly_dirty);
  EXPECT_TRUE(pool.IsDirty(1));
  EXPECT_EQ(pool.dirty_count(), 1u);
  // Second dirty touch coalesces: not newly dirty.
  r = pool.Touch(1, true);
  EXPECT_FALSE(r.newly_dirty);
  EXPECT_EQ(pool.dirty_count(), 1u);
}

TEST(BufferPoolTest, CleanTouchKeepsDirtyBit) {
  BufferPool pool(10);
  pool.Touch(1, true);
  pool.Touch(1, false);
  EXPECT_TRUE(pool.IsDirty(1));
}

TEST(BufferPoolTest, MarkClean) {
  BufferPool pool(10);
  pool.Touch(1, true);
  pool.MarkClean(1);
  EXPECT_FALSE(pool.IsDirty(1));
  EXPECT_EQ(pool.dirty_count(), 0u);
  EXPECT_TRUE(pool.Contains(1));
  // Re-dirty is newly dirty again.
  EXPECT_TRUE(pool.Touch(1, true).newly_dirty);
}

TEST(BufferPoolTest, DirtyEvictionFlagged) {
  BufferPool pool(1);
  pool.Touch(1, true);
  const TouchResult r = pool.Touch(2, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_TRUE(r.evicted_dirty);
  EXPECT_EQ(pool.dirty_evictions(), 1u);
  EXPECT_EQ(pool.dirty_count(), 0u);
}

TEST(BufferPoolTest, DirtyPagesSortedAscending) {
  BufferPool pool(10);
  for (PageId p : {7, 3, 9, 1}) pool.Touch(p, true);
  PageId prev = 0;
  for (PageId p : pool.dirty_pages()) {
    EXPECT_GT(p, prev);
    prev = p;
  }
  EXPECT_EQ(pool.dirty_count(), 4u);
}

TEST(BufferPoolTest, EvictRemovesDirtyEntry) {
  BufferPool pool(10);
  pool.Touch(5, true);
  pool.Evict(5);
  EXPECT_FALSE(pool.Contains(5));
  EXPECT_EQ(pool.dirty_count(), 0u);
}

TEST(BufferPoolTest, CapacityRespected) {
  BufferPool pool(100);
  for (PageId p = 0; p < 1000; ++p) pool.Touch(p, false);
  EXPECT_EQ(pool.size(), 100u);
  EXPECT_EQ(pool.evictions(), 900u);
}

TEST(BufferPoolTest, DirtyFraction) {
  BufferPool pool(4);
  pool.Touch(1, true);
  pool.Touch(2, false);
  EXPECT_DOUBLE_EQ(pool.DirtyFraction(), 0.25);
}

TEST(BufferPoolTest, WorkingSetStaysResidentUnderScans) {
  // Hot pages touched every round survive a cold scan smaller than the
  // slack; this is the property buffer pool gauging relies on.
  BufferPool pool(100);
  for (PageId p = 0; p < 50; ++p) pool.Touch(p, false);  // hot set
  for (PageId round = 0; round < 10; ++round) {
    for (PageId p = 0; p < 50; ++p) pool.Touch(p, false);
    // 40 cold pages per round fit in the slack.
    for (PageId p = 1000 + round * 40; p < 1040 + round * 40; ++p) {
      pool.Touch(p, false);
    }
  }
  for (PageId p = 0; p < 50; ++p) EXPECT_TRUE(pool.Contains(p));
}

}  // namespace
}  // namespace kairos::db
