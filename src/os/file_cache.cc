#include "os/file_cache.h"

namespace kairos::os {

FileCache::FileCache(uint64_t capacity_pages) : capacity_pages_(capacity_pages) {}

bool FileCache::Lookup(PageId page) {
  if (disabled()) return false;
  auto it = map_.find(page);
  if (it == map_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return true;
}

void FileCache::Insert(PageId page) {
  if (disabled()) return;
  auto it = map_.find(page);
  if (it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(page);
  map_[page] = lru_.begin();
  while (map_.size() > capacity_pages_) {
    map_.erase(lru_.back());
    lru_.pop_back();
  }
}

void FileCache::Erase(PageId page) {
  auto it = map_.find(page);
  if (it == map_.end()) return;
  lru_.erase(it->second);
  map_.erase(it);
}

}  // namespace kairos::os
