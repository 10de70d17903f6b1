#include <gtest/gtest.h>

#include "os/file_cache.h"

namespace kairos::os {
namespace {

TEST(FileCacheTest, MissOnEmpty) {
  FileCache c(4);
  EXPECT_FALSE(c.Lookup(1));
  EXPECT_EQ(c.misses(), 1u);
}

TEST(FileCacheTest, HitAfterInsert) {
  FileCache c(4);
  c.Insert(1);
  EXPECT_TRUE(c.Lookup(1));
  EXPECT_EQ(c.hits(), 1u);
}

TEST(FileCacheTest, LruEviction) {
  FileCache c(2);
  c.Insert(1);
  c.Insert(2);
  c.Insert(3);  // evicts 1
  EXPECT_FALSE(c.Lookup(1));
  EXPECT_TRUE(c.Lookup(2));
  EXPECT_TRUE(c.Lookup(3));
}

TEST(FileCacheTest, LookupPromotes) {
  FileCache c(2);
  c.Insert(1);
  c.Insert(2);
  EXPECT_TRUE(c.Lookup(1));  // 1 now MRU
  c.Insert(3);               // evicts 2
  EXPECT_TRUE(c.Lookup(1));
  EXPECT_FALSE(c.Lookup(2));
}

TEST(FileCacheTest, InsertExistingPromotes) {
  FileCache c(2);
  c.Insert(1);
  c.Insert(2);
  c.Insert(1);  // promote, no growth
  EXPECT_EQ(c.size(), 2u);
  c.Insert(3);  // evicts 2
  EXPECT_TRUE(c.Lookup(1));
  EXPECT_FALSE(c.Lookup(2));
}

TEST(FileCacheTest, DisabledCache) {
  FileCache c(0);
  EXPECT_TRUE(c.disabled());
  c.Insert(1);
  EXPECT_FALSE(c.Lookup(1));
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.misses(), 0u);  // disabled lookups don't count
}

TEST(FileCacheTest, Erase) {
  FileCache c(4);
  c.Insert(1);
  c.Erase(1);
  EXPECT_FALSE(c.Lookup(1));
  c.Erase(99);  // no-op
}

}  // namespace
}  // namespace kairos::os
