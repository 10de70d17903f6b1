// A simulated DBMS instance hosting one or more tenant databases.
//
// The instance advances in fixed ticks. Within a tick, workloads Submit()
// batches of transactions whose row accesses touch buffer-pool pages
// (misses -> physical reads, updates -> dirty pages). Closing the tick is a
// two-phase protocol so several instances can share one disk (the VM
// baselines):
//
//   PrepareTick()  - group-commit log flush, dirty-page write-back
//                    selection, I/O cost computation; submits busy time to
//                    the shared sim::Disk.
//   <owner calls disk->EndTick() and divides CPU among instances>
//   FinalizeTick() - completion throttling, backlog queues, and latency
//                    under the machine-wide CPU/disk pressure.
//
// Single-DBMS-per-machine experiments use db::Server, which wraps the
// protocol for the common case.
#ifndef KAIROS_DB_DBMS_H_
#define KAIROS_DB_DBMS_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/buffer_pool.h"
#include "db/database.h"
#include "db/flusher.h"
#include "db/log_manager.h"
#include "db/page.h"
#include "db/tx_profile.h"
#include "os/file_cache.h"
#include "sim/disk.h"
#include "util/rng.h"
#include "util/units.h"

namespace kairos::db {

/// Static configuration of one DBMS instance.
struct DbmsConfig {
  uint64_t page_bytes = kDefaultPageBytes;
  /// Buffer pool size (InnoDB buffer pool / Postgres shared_buffers).
  uint64_t buffer_pool_bytes = 1 * util::kGiB;
  /// OS file cache available below the DBMS. Zero = O_DIRECT (MySQL-style);
  /// nonzero = PostgreSQL-style double buffering.
  uint64_t os_file_cache_bytes = 0;
  double group_commit_window_ms = 5.0;
  /// Log capacity before a checkpoint (full flush + log reclaim) is forced.
  /// Also drives fuzzy-checkpoint flush pacing: smaller logs force faster
  /// write-back and hence less update coalescing.
  uint64_t log_file_bytes = 128 * util::kMiB;
  FlusherConfig flusher;
  /// Memory the DBMS process needs beyond the buffer pool (~190 MB for
  /// MySQL per the paper).
  uint64_t dbms_ram_overhead_bytes = 190 * util::kMiB;
  /// Memory of the OS image hosting this instance (~64 MB per the paper);
  /// relevant when each database gets its own VM.
  uint64_t os_ram_overhead_bytes = 64 * util::kMiB;
  /// Background CPU (cores) burned by OS + DBMS housekeeping regardless of
  /// load — the per-instance overhead Kairos subtracts when consolidating.
  double base_cpu_cores = 0.04;
  /// Per-transaction connection/parse/plan overhead.
  double per_tx_cpu_overhead_us = 40.0;
  /// CPU cost of one buffer-pool page access.
  double page_touch_cpu_us = 0.8;
  /// Latency added while a checkpoint's mandatory flushing is in progress
  /// (the paper observes ~150 ms spikes during MySQL log reclamation).
  double checkpoint_latency_ms = 120.0;
  /// Offered transactions are shed beyond this many seconds of queue.
  double max_queue_seconds = 2.0;
  /// Simulation guard: page touches per tick above which accesses are
  /// subsampled and rescaled.
  int64_t max_touches_per_tick = 2'000'000;
};

/// Per-instance results of one tick.
struct InstanceTickReport {
  double cpu_demand_core_s = 0;      ///< CPU wanted this tick (core-seconds).
  double cpu_utilization = 0;        ///< Demand / allotted capacity.
  double disk_seconds = 0;           ///< Total device time submitted.
  double mandatory_disk_seconds = 0; ///< Reads + log + forced flushes only.
  uint64_t write_bytes = 0;          ///< Log + write-back bytes.
  uint64_t read_bytes = 0;           ///< Physical read bytes.
  int64_t pages_flushed = 0;
  int64_t pages_read = 0;
  int64_t log_fsyncs = 0;
  bool checkpoint_active = false;

  /// Per-database completions for the tick.
  struct PerDb {
    Database* db = nullptr;
    int64_t submitted = 0;
    int64_t completed = 0;
    double avg_latency_ms = 0;
  };
  std::vector<PerDb> per_db;

  /// Sum of completed transactions across databases.
  int64_t TotalCompleted() const;
};

/// One simulated DBMS instance.
class Dbms {
 public:
  /// `disk` is borrowed (the hosting machine owns it) and may be shared
  /// with other instances. `stream_id` distinguishes instances sharing a
  /// disk for interleaving penalties.
  Dbms(const DbmsConfig& config, sim::Disk* disk, uint64_t seed, int stream_id = 0);

  const DbmsConfig& config() const { return config_; }

  /// Creates a tenant database.
  Database* CreateDatabase(const std::string& name);
  /// All tenant databases.
  const std::vector<Database*>& databases() const { return database_ptrs_; }

  /// Allocates `pages` of contiguous page space (used by Database).
  PageId AllocatePages(uint64_t pages);

  /// Offers a batch of transactions for `db` in the current tick.
  void Submit(Database* db, const TxBatch& batch);

  /// Touches `count` pages of `region` starting at `from_page` (relative to
  /// the region) in sequential order. Used by table scans and the gauging
  /// probe. Dirty touches append `log_bytes_per_page` of log each.
  void TouchSequential(Database* db, const Region& region, uint64_t from_page,
                       uint64_t count, bool dirty, double cpu_us_per_page,
                       uint64_t log_bytes_per_page = 0);

  /// Appends `pages` fresh pages to `region` (growing the table) and faults
  /// them into the buffer pool dirty. Unlike TouchSequential, appends never
  /// cause physical reads (new pages are born in memory). Used by inserts
  /// that grow tables — notably the gauging probe table.
  void AppendPages(Database* db, Region* region, uint64_t pages,
                   double cpu_us_per_page, uint64_t log_bytes_per_page);

  /// Truncates a table: evicts all its pages from the buffer pool and OS
  /// cache, discarding dirty state (dropped data needs no write-back), and
  /// resets the region to zero pages. Used when the gauging probe table is
  /// torn down.
  void TruncateTable(Database* db, Region* region);

  /// Phase 1 of closing a tick; submits I/O busy time to the disk.
  void PrepareTick(double tick_seconds);

  /// Mandatory device seconds (reads + log + forced flushes) computed by the
  /// last PrepareTick(). The hosting machine divides this by the tick length
  /// (summing across instances sharing the disk) to obtain the disk pressure
  /// passed to FinalizeTick().
  double last_mandatory_disk_seconds() const { return tick_.mandatory_disk_seconds; }

  /// Total device seconds submitted by the last PrepareTick().
  double last_disk_seconds() const { return tick_.disk_seconds; }

  /// CPU demand (core-seconds) computed by the last PrepareTick().
  double last_cpu_demand_core_s() const { return tick_.cpu_demand_core_s; }

  /// Log fsyncs issued by the last PrepareTick() (for cross-stream
  /// interleaving accounting on shared disks).
  int64_t last_log_fsyncs() const { return tick_.log_fsyncs; }

  /// Pages written back by the last PrepareTick().
  int64_t last_pages_flushed() const { return tick_.pages_flushed; }

  /// Phase 2: finalize completions and latency.
  /// `cpu_cores_allotted`: CPU capacity this instance may use this tick.
  /// `machine_disk_pressure`: machine-wide mandatory disk demand divided by
  /// the tick length (>1 means mandatory I/O alone over-commits the disk).
  InstanceTickReport FinalizeTick(double tick_seconds, double cpu_cores_allotted,
                                  double machine_disk_pressure);

  /// Resident set size of the DBMS process (buffer pool + process overhead).
  uint64_t RssBytes() const;
  /// Bytes the kernel would report "active" — effectively the whole pool
  /// once warmed (the overestimate that motivates gauging).
  uint64_t ActiveBytes() const;
  /// Bytes held by this instance's OS file cache.
  uint64_t FileCacheBytes() const;

  BufferPool& buffer_pool() { return pool_; }
  const BufferPool& buffer_pool() const { return pool_; }
  LogManager& log_manager() { return log_; }
  os::FileCache* file_cache() { return cache_ ? cache_.get() : nullptr; }
  sim::Disk* disk() { return disk_; }
  int stream_id() const { return stream_id_; }

  /// Cumulative physical I/O (what iostat would charge to this instance).
  uint64_t total_write_bytes() const { return total_write_bytes_; }

  /// Expected latency (ms) of one physical page read on the current disk.
  double PageReadLatencyMs() const;

 private:
  struct PendingDb {
    int64_t submitted = 0;
    double cpu_seconds = 0;
    int64_t misses = 0;
    int64_t cache_hits = 0;
    uint64_t log_bytes = 0;
    double commits = 0;
    int64_t read_rows = 0;
    int64_t update_rows = 0;
    int64_t pages_dirtied = 0;
    int64_t touches = 0;
    bool has_profile = false;
    TxProfile profile;
  };

  /// Touches one page through pool + OS cache; updates pending counters.
  void TouchPage(PageId page, bool dirty, PendingDb* pd);

  PendingDb& Pending(Database* db);

  DbmsConfig config_;
  sim::Disk* disk_;
  util::Rng rng_;
  int stream_id_;

  BufferPool pool_;
  std::unique_ptr<os::FileCache> cache_;
  LogManager log_;
  Flusher flusher_;

  PageId next_page_ = 1;
  std::list<std::unique_ptr<Database>> databases_;
  std::vector<Database*> database_ptrs_;

  std::unordered_map<Database*, PendingDb> pending_;
  int64_t dirty_evictions_tick_ = 0;
  // Misses from sequential scans this tick: serviced as sequential reads,
  // not random seeks.
  int64_t seq_miss_pages_tick_ = 0;
  bool checkpoint_active_ = false;
  // Fuzzy checkpoint: only the pages dirty when the checkpoint triggered
  // must be written back before the log is reclaimed.
  int64_t checkpoint_remaining_pages_ = 0;
  double log_bytes_per_sec_ema_ = 0.0;

  // Carried between Prepare and Finalize.
  struct TickState {
    double disk_seconds = 0;
    double mandatory_disk_seconds = 0;
    uint64_t write_bytes = 0;
    uint64_t read_bytes = 0;
    int64_t pages_flushed = 0;
    int64_t pages_read = 0;
    int64_t log_fsyncs = 0;
    double commit_wait_ms = 0;
    bool mandatory_flush = false;
    double cpu_demand_core_s = 0;
  };
  TickState tick_;

  uint64_t total_write_bytes_ = 0;
};

}  // namespace kairos::db

#endif  // KAIROS_DB_DBMS_H_
