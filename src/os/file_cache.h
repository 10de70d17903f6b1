// OS file cache: an LRU page cache that sits between the DBMS buffer pool
// and the disk. PostgreSQL-style configurations use a small shared buffer
// plus a large file cache; MySQL/InnoDB with O_DIRECT bypasses it.
#ifndef KAIROS_OS_FILE_CACHE_H_
#define KAIROS_OS_FILE_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>

namespace kairos::os {

/// Identifier of a fixed-size page in the machine-global page id space.
using PageId = uint64_t;

/// A strict-LRU page cache.
class FileCache {
 public:
  /// Creates a cache holding at most `capacity_pages` pages. Zero capacity
  /// means the cache is disabled (every lookup misses, inserts are dropped).
  explicit FileCache(uint64_t capacity_pages);

  /// Looks up a page; on hit, promotes it to MRU.
  bool Lookup(PageId page);

  /// Inserts (or promotes) a page, evicting LRU pages as needed.
  void Insert(PageId page);

  /// Removes a page if present (e.g., the DBMS invalidated it).
  void Erase(PageId page);

  /// Number of resident pages.
  uint64_t size() const { return map_.size(); }
  /// Capacity in pages.
  uint64_t capacity() const { return capacity_pages_; }
  /// True when the cache has zero capacity.
  bool disabled() const { return capacity_pages_ == 0; }

  /// Cumulative hits and misses observed by Lookup().
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  uint64_t capacity_pages_;
  std::list<PageId> lru_;  // front = MRU
  std::unordered_map<PageId, std::list<PageId>::iterator> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace kairos::os

#endif  // KAIROS_OS_FILE_CACHE_H_
