#include "db/database.h"

#include <algorithm>

#include "db/dbms.h"

namespace kairos::db {

void DbCounters::Accumulate(const DbCounters& other) {
  submitted_tx += other.submitted_tx;
  completed_tx += other.completed_tx;
  dropped_tx += other.dropped_tx;
  physical_reads += other.physical_reads;
  file_cache_hits += other.file_cache_hits;
  read_rows += other.read_rows;
  update_rows += other.update_rows;
  pages_dirtied += other.pages_dirtied;
  log_bytes += other.log_bytes;
  cpu_seconds += other.cpu_seconds;
  latency_weighted_ms += other.latency_weighted_ms;
}

Database::Database(Dbms* owner, std::string name)
    : owner_(owner), name_(std::move(name)) {}

Region* Database::CreateTable(const std::string& table_name, uint64_t initial_pages,
                              uint64_t reserved_pages) {
  reserved_pages = std::max(reserved_pages, initial_pages);
  Region region;
  region.name = table_name;
  region.start = owner_->AllocatePages(reserved_pages);
  region.pages = initial_pages;
  region.reserved = reserved_pages;
  tables_.push_back(region);
  return &tables_.back();
}

void Database::ExtendTable(Region* region, uint64_t pages) {
  if (region->pages + pages <= region->reserved) {
    region->pages += pages;
    return;
  }
  // Reservation exhausted: allocate a fresh, larger contiguous region and
  // treat it as the table moving (simulated page space is free, and nothing
  // holds raw page ids across ticks except the buffer pool, which simply
  // re-faults the new range).
  const uint64_t new_reserved = std::max(region->reserved * 2, region->pages + pages);
  region->start = owner_->AllocatePages(new_reserved);
  region->reserved = new_reserved;
  region->pages += pages;
}

DbCounters Database::TakeWindow() {
  DbCounters w = window_;
  window_ = DbCounters();
  return w;
}

}  // namespace kairos::db
