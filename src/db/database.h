// A tenant database inside a (possibly multi-tenant) DBMS instance.
#ifndef KAIROS_DB_DATABASE_H_
#define KAIROS_DB_DATABASE_H_

#include <cstdint>
#include <list>
#include <string>

#include "db/page.h"

namespace kairos::db {

class Dbms;

/// Cumulative-and-windowed activity counters for one database. The resource
/// monitor samples these the way it would poll SHOW STATUS.
struct DbCounters {
  int64_t submitted_tx = 0;
  int64_t completed_tx = 0;
  int64_t dropped_tx = 0;         ///< Shed when the queue limit was hit.
  int64_t physical_reads = 0;     ///< Pages read from disk.
  int64_t file_cache_hits = 0;    ///< Buffer misses served by the OS cache.
  int64_t read_rows = 0;
  int64_t update_rows = 0;
  int64_t pages_dirtied = 0;      ///< Clean->dirty transitions caused.
  uint64_t log_bytes = 0;
  double cpu_seconds = 0.0;
  double latency_weighted_ms = 0.0;  ///< Sum of latency*completed, for means.

  /// Adds `other` into this.
  void Accumulate(const DbCounters& other);
};

/// A named tenant database: a set of table regions in the instance's page
/// space plus activity counters.
class Database {
 public:
  Database(Dbms* owner, std::string name);

  const std::string& name() const { return name_; }
  Dbms* owner() const { return owner_; }

  /// Creates a table of `initial_pages` pages, reserving `reserved_pages`
  /// (>= initial) of contiguous growth room. Returns a stable pointer.
  Region* CreateTable(const std::string& table_name, uint64_t initial_pages,
                      uint64_t reserved_pages = 0);

  /// Grows a table by `pages` within its reservation; extends the
  /// reservation if exhausted (allocating fresh contiguous space).
  void ExtendTable(Region* region, uint64_t pages);

  /// Counters since creation.
  const DbCounters& lifetime() const { return lifetime_; }
  /// Returns and resets the windowed counters.
  DbCounters TakeWindow();

 private:
  friend class Dbms;

  Dbms* owner_;
  std::string name_;
  std::list<Region> tables_;  // std::list: stable Region pointers.
  DbCounters lifetime_;
  DbCounters window_;
  double backlog_tx_ = 0.0;
};

}  // namespace kairos::db

#endif  // KAIROS_DB_DATABASE_H_
