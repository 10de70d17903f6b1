#include "db/buffer_pool.h"

namespace kairos::db {

BufferPool::BufferPool(uint64_t capacity_pages) : capacity_pages_(capacity_pages) {}

TouchResult BufferPool::Touch(PageId page, bool dirty) {
  TouchResult r;
  ++logical_reads_;
  auto it = map_.find(page);
  if (it != map_.end()) {
    r.hit = true;
    lru_.splice(lru_.begin(), lru_, it->second);
    if (dirty && !it->second->dirty) {
      it->second->dirty = true;
      dirty_.insert(page);
      r.newly_dirty = true;
    }
    return r;
  }
  ++misses_;
  // Fault in, evicting if full.
  if (map_.size() >= capacity_pages_ && !lru_.empty()) {
    const Node& victim = lru_.back();
    r.evicted = true;
    r.evicted_page = victim.page;
    r.evicted_dirty = victim.dirty;
    ++evictions_;
    if (victim.dirty) {
      ++dirty_evictions_;
      dirty_.erase(victim.page);
    }
    map_.erase(victim.page);
    lru_.pop_back();
  }
  lru_.push_front(Node{page, dirty});
  map_[page] = lru_.begin();
  if (dirty) {
    dirty_.insert(page);
    r.newly_dirty = true;
  }
  return r;
}

void BufferPool::MarkClean(PageId page) {
  auto it = map_.find(page);
  if (it == map_.end()) return;
  if (it->second->dirty) {
    it->second->dirty = false;
    dirty_.erase(page);
  }
}

void BufferPool::Evict(PageId page) {
  auto it = map_.find(page);
  if (it == map_.end()) return;
  if (it->second->dirty) dirty_.erase(page);
  lru_.erase(it->second);
  map_.erase(it);
}

double BufferPool::DirtyFraction() const {
  if (capacity_pages_ == 0) return 0.0;
  return static_cast<double>(dirty_.size()) / static_cast<double>(capacity_pages_);
}

}  // namespace kairos::db
