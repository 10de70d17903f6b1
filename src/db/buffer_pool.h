// The DBMS buffer pool: strict LRU with dirty-page tracking.
//
// Central behaviours the paper relies on:
//  * the pool fills with pages and stays full (OS sees everything "active"),
//  * a page already dirty absorbs further updates at zero extra write-back
//    cost (update coalescing -> the nonlinear disk model of Section 4),
//  * evictions of hot pages cause physical re-reads (-> buffer pool gauging).
#ifndef KAIROS_DB_BUFFER_POOL_H_
#define KAIROS_DB_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <set>
#include <unordered_map>
#include <vector>

#include "db/page.h"

namespace kairos::db {

/// Outcome of touching one page in the pool.
struct TouchResult {
  bool hit = false;           ///< Page was already resident.
  bool newly_dirty = false;   ///< Page transitioned clean->dirty.
  bool evicted = false;       ///< Another page was evicted to make room.
  bool evicted_dirty = false; ///< The evicted page was dirty (forced write).
  PageId evicted_page = 0;    ///< Which page was evicted (valid if evicted).
};

/// Strict-LRU buffer pool with a sorted dirty set for elevator write-back.
class BufferPool {
 public:
  /// Creates a pool holding at most `capacity_pages` pages.
  explicit BufferPool(uint64_t capacity_pages);

  /// Touches `page`, optionally dirtying it. Faults it in on miss, evicting
  /// the LRU page when full.
  TouchResult Touch(PageId page, bool dirty);

  /// True if the page is resident.
  bool Contains(PageId page) const { return map_.find(page) != map_.end(); }

  /// True if the page is resident and dirty.
  bool IsDirty(PageId page) const { return dirty_.count(page) > 0; }

  /// Marks a resident page clean (after write-back).
  void MarkClean(PageId page);

  /// Drops a page from the pool (e.g., table dropped). No write-back.
  void Evict(PageId page);

  /// Resident pages.
  uint64_t size() const { return map_.size(); }
  /// Capacity in pages.
  uint64_t capacity() const { return capacity_pages_; }
  /// Number of dirty resident pages.
  uint64_t dirty_count() const { return dirty_.size(); }
  /// Dirty pages in ascending page-id order (the flusher's elevator order).
  const std::set<PageId>& dirty_pages() const { return dirty_; }
  /// Fraction of the pool that is dirty.
  double DirtyFraction() const;

  /// Cumulative counters.
  uint64_t logical_reads() const { return logical_reads_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t dirty_evictions() const { return dirty_evictions_; }

 private:
  struct Node {
    PageId page;
    bool dirty;
  };

  uint64_t capacity_pages_;
  std::list<Node> lru_;  // front = MRU
  std::unordered_map<PageId, std::list<Node>::iterator> map_;
  std::set<PageId> dirty_;

  uint64_t logical_reads_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t dirty_evictions_ = 0;
};

}  // namespace kairos::db

#endif  // KAIROS_DB_BUFFER_POOL_H_
