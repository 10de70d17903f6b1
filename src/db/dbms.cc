#include "db/dbms.h"

#include <algorithm>
#include <cmath>

namespace kairos::db {

int64_t InstanceTickReport::TotalCompleted() const {
  int64_t total = 0;
  for (const auto& d : per_db) total += d.completed;
  return total;
}

Dbms::Dbms(const DbmsConfig& config, sim::Disk* disk, uint64_t seed)
    : config_(config),
      disk_(disk),
      rng_(seed),
      pool_(config.buffer_pool_bytes / config.page_bytes),
      log_(config.group_commit_window_ms, config.log_file_bytes),
      flusher_(config.flusher) {
  if (config_.os_file_cache_bytes > 0) {
    cache_ = std::make_unique<os::FileCache>(config_.os_file_cache_bytes /
                                             config_.page_bytes);
  }
}

Database* Dbms::CreateDatabase(const std::string& name) {
  databases_.push_back(std::make_unique<Database>(this, name));
  database_ptrs_.push_back(databases_.back().get());
  return databases_.back().get();
}

PageId Dbms::AllocatePages(uint64_t pages) {
  const PageId start = next_page_;
  next_page_ += pages;
  return start;
}

Dbms::PendingDb& Dbms::Pending(Database* db) { return pending_[db]; }

void Dbms::TouchPage(PageId page, bool dirty, PendingDb* pd) {
  ++pd->touches;
  const TouchResult r = pool_.Touch(page, dirty);
  if (!r.hit) {
    // Buffer pool miss: maybe served by the OS file cache.
    if (cache_ && cache_->Lookup(page)) {
      ++pd->cache_hits;
    } else {
      ++pd->misses;
      if (cache_) cache_->Insert(page);  // Read path populates the cache.
    }
  }
  if (r.newly_dirty) ++pd->pages_dirtied;
  if (r.evicted_dirty) {
    ++dirty_evictions_tick_;
    if (cache_) cache_->Insert(r.evicted_page);  // Write-back lands in cache.
  }
}

void Dbms::Submit(Database* db, const TxBatch& batch) {
  if (batch.transactions <= 0) return;
  PendingDb& pd = Pending(db);
  const int64_t n = batch.transactions;
  const TxProfile& p = batch.profile;

  int64_t reads = static_cast<int64_t>(std::llround(
      static_cast<double>(n) * p.read_rows * p.pages_per_read));
  int64_t updates = static_cast<int64_t>(std::llround(
      static_cast<double>(n) * p.update_rows * p.pages_per_update));

  // Subsampling guard for extreme rates: simulate a fraction of the touches
  // and scale the counter deltas back up.
  double scale = 1.0;
  const int64_t total_touches = reads + updates;
  if (total_touches > config_.max_touches_per_tick && total_touches > 0) {
    scale = static_cast<double>(total_touches) /
            static_cast<double>(config_.max_touches_per_tick);
    reads = static_cast<int64_t>(static_cast<double>(reads) / scale);
    updates = static_cast<int64_t>(static_cast<double>(updates) / scale);
  }

  PendingDb local;  // Deltas from this batch, scaled at the end.
  if (batch.sampler != nullptr) {
    for (int64_t i = 0; i < reads; ++i) {
      TouchPage(batch.sampler->SampleRead(rng_), false, &local);
    }
    for (int64_t i = 0; i < updates; ++i) {
      TouchPage(batch.sampler->SampleUpdate(rng_), true, &local);
    }
  }

  pd.submitted += n;
  pd.misses += static_cast<int64_t>(std::llround(local.misses * scale));
  pd.cache_hits += static_cast<int64_t>(std::llround(local.cache_hits * scale));
  pd.pages_dirtied += static_cast<int64_t>(std::llround(local.pages_dirtied * scale));
  pd.touches += static_cast<int64_t>(std::llround(local.touches * scale));
  pd.read_rows += static_cast<int64_t>(std::llround(static_cast<double>(n) * p.read_rows));
  pd.update_rows +=
      static_cast<int64_t>(std::llround(static_cast<double>(n) * p.update_rows));
  pd.log_bytes += static_cast<uint64_t>(std::llround(
      static_cast<double>(n) * p.update_rows * p.log_bytes_per_update));
  pd.commits += static_cast<double>(n) * p.commits_per_tx;
  pd.cpu_seconds +=
      static_cast<double>(n) * (p.cpu_us + config_.per_tx_cpu_overhead_us) * 1e-6 +
      static_cast<double>(local.touches) * scale * config_.page_touch_cpu_us * 1e-6;
  pd.profile = p;
  pd.has_profile = true;
}

void Dbms::TouchSequential(Database* db, const Region& region, uint64_t from_page,
                           uint64_t count, bool dirty, double cpu_us_per_page,
                           uint64_t log_bytes_per_page) {
  PendingDb& pd = Pending(db);
  PendingDb local;
  const uint64_t end = std::min(from_page + count, region.pages);
  for (uint64_t i = from_page; i < end; ++i) {
    TouchPage(region.start + i, dirty, &local);
  }
  const uint64_t touched = end > from_page ? end - from_page : 0;
  seq_miss_pages_tick_ += local.misses;
  pd.misses += local.misses;
  pd.cache_hits += local.cache_hits;
  pd.pages_dirtied += local.pages_dirtied;
  pd.touches += local.touches;
  pd.cpu_seconds += static_cast<double>(touched) * cpu_us_per_page * 1e-6;
  if (dirty && log_bytes_per_page > 0) {
    pd.log_bytes += touched * log_bytes_per_page;
    pd.commits += 1.0;  // One bulk transaction for the whole append.
  }
}

void Dbms::AppendPages(Database* db, Region* region, uint64_t pages,
                       double cpu_us_per_page, uint64_t log_bytes_per_page) {
  PendingDb& pd = Pending(db);
  const uint64_t first_new = region->pages;
  db->ExtendTable(region, pages);
  PendingDb local;
  for (uint64_t i = 0; i < pages; ++i) {
    const PageId page = region->start + first_new + i;
    ++local.touches;
    const TouchResult r = pool_.Touch(page, /*dirty=*/true);
    // A fresh page is allocated, not read: suppress the miss-read path, but
    // evictions it causes are real.
    if (r.newly_dirty) ++local.pages_dirtied;
    if (r.evicted_dirty) {
      ++dirty_evictions_tick_;
      if (cache_) cache_->Insert(r.evicted_page);
    }
    if (cache_) cache_->Insert(page);  // The insert write lands in the cache.
  }
  pd.pages_dirtied += local.pages_dirtied;
  pd.touches += local.touches;
  pd.cpu_seconds += static_cast<double>(pages) * cpu_us_per_page * 1e-6;
  if (log_bytes_per_page > 0) {
    pd.log_bytes += pages * log_bytes_per_page;
    pd.commits += 1.0;
  }
}

void Dbms::TruncateTable(Database* db, Region* region) {
  (void)db;
  for (uint64_t i = 0; i < region->pages; ++i) {
    const PageId page = region->start + i;
    pool_.Evict(page);
    if (cache_) cache_->Erase(page);
  }
  region->pages = 0;
}

void Dbms::PrepareTick(double tick_seconds) {
  tick_ = TickState();

  // 1. Log flush (shared sequential stream, group commit across tenants).
  int64_t commits = 0;
  uint64_t log_bytes = 0;
  int64_t misses = 0;
  double cpu = config_.base_cpu_cores * tick_seconds;
  for (auto& [db, pd] : pending_) {
    commits += static_cast<int64_t>(std::llround(pd.commits));
    log_bytes += pd.log_bytes;
    misses += pd.misses;
    cpu += pd.cpu_seconds;
  }
  log_.Append(commits, log_bytes);
  const LogManager::FlushResult fr = log_.FlushTick(tick_seconds);
  const double log_cost = disk_->SeqWriteCost(fr.bytes, static_cast<int>(fr.groups));
  tick_.log_fsyncs = fr.groups;
  tick_.commit_wait_ms = fr.avg_commit_wait_ms;

  // 2. Physical reads from buffer pool misses. Misses from sequential
  // scans stream off the platter; the rest are random point reads.
  const int64_t seq_misses = std::min(seq_miss_pages_tick_, misses);
  const int64_t rand_misses = misses - seq_misses;
  const double read_cost =
      disk_->RandomReadCost(rand_misses, config_.page_bytes) +
      disk_->SeqReadCost(static_cast<uint64_t>(seq_misses) * config_.page_bytes);
  seq_miss_pages_tick_ = 0;
  tick_.pages_read = misses;
  tick_.read_bytes = static_cast<uint64_t>(misses) * config_.page_bytes;

  // 3. Forced single-page writes from dirty evictions.
  const double evict_cost = disk_->RandomWriteCost(dirty_evictions_tick_, config_.page_bytes);
  const uint64_t evict_bytes =
      static_cast<uint64_t>(dirty_evictions_tick_) * config_.page_bytes;

  // 4. Checkpoint trigger + paced background write-back.
  if (log_.CheckpointDue() && !checkpoint_active_) {
    checkpoint_active_ = true;
    checkpoint_remaining_pages_ = static_cast<int64_t>(pool_.dirty_count());
  }
  const double alpha = std::min(1.0, 0.2 * tick_seconds / 0.1);
  log_bytes_per_sec_ema_ =
      (1.0 - alpha) * log_bytes_per_sec_ema_ +
      alpha * static_cast<double>(fr.bytes) / tick_seconds;
  const double seconds_to_checkpoint =
      log_bytes_per_sec_ema_ > 1.0
          ? static_cast<double>(config_.log_file_bytes -
                                std::min(config_.log_file_bytes,
                                         log_.bytes_since_checkpoint())) /
                log_bytes_per_sec_ema_
          : std::numeric_limits<double>::infinity();
  FlushBatch batch =
      flusher_.SelectBatch(pool_, tick_seconds, disk_->last_utilization(),
                           checkpoint_active_, seconds_to_checkpoint);

  auto batch_cost = [&](const FlushBatch& b) {
    if (b.pages.empty()) return 0.0;
    return disk_->SortedWriteCost(static_cast<int64_t>(b.pages.size()),
                                  config_.page_bytes,
                                  b.span_pages * config_.page_bytes);
  };

  // The device time the selected batch NEEDS; its deadline share is
  // mandatory load whether or not the disk can serve it this tick. The
  // stall signal is bounded: fuzzy checkpointing never blocks the world
  // for more than a few ticks at a time.
  const double flush_needed = batch_cost(batch);
  const double mandatory_flush_needed =
      std::min(flush_needed * batch.mandatory_fraction, 3.0 * tick_seconds);

  // Trim the batch to the device capacity actually available this tick so
  // reported write bytes never exceed what the disk can absorb. Mandatory
  // batches may burst up to two ticks worth; unflushed pages stay dirty
  // and keep applying pressure.
  const double other_cost = log_cost + read_cost + evict_cost;
  const double burst = batch.mandatory ? 2.0 : 1.0;
  const double available =
      std::max(0.0, burst * tick_seconds - other_cost - disk_->pending_backlog());
  double flush_cost = flush_needed;
  if (flush_cost > available && !batch.pages.empty()) {
    const double frac = available / flush_cost;
    const size_t keep = static_cast<size_t>(
        static_cast<double>(batch.pages.size()) * frac);
    batch.pages.resize(keep);
    batch.span_pages =
        batch.pages.empty() ? 0 : batch.pages.back() - batch.pages.front() + 1;
    flush_cost = batch_cost(batch);
  }
  for (PageId p : batch.pages) {
    pool_.MarkClean(p);
    if (cache_) cache_->Insert(p);  // Write-back passes through the OS cache.
  }
  if (checkpoint_active_) {
    checkpoint_remaining_pages_ -= static_cast<int64_t>(batch.pages.size());
    if (checkpoint_remaining_pages_ <= 0 || pool_.dirty_count() == 0) {
      log_.CheckpointDone();
      checkpoint_active_ = false;
      checkpoint_remaining_pages_ = 0;
    }
  }
  tick_.mandatory_flush = batch.mandatory;
  tick_.pages_flushed = static_cast<int64_t>(batch.pages.size());

  tick_.write_bytes = fr.bytes + evict_bytes +
                      static_cast<uint64_t>(batch.pages.size()) * config_.page_bytes;
  tick_.disk_seconds = log_cost + read_cost + evict_cost + flush_cost;
  tick_.mandatory_disk_seconds =
      log_cost + read_cost + evict_cost + mandatory_flush_needed;
  tick_.cpu_demand_core_s = cpu;

  disk_->Submit(tick_.disk_seconds);

  total_write_bytes_ += tick_.write_bytes;
  dirty_evictions_tick_ = 0;
}

double Dbms::PageReadLatencyMs() const {
  return disk_->RandomReadCost(1, config_.page_bytes) * 1e3;
}

InstanceTickReport Dbms::FinalizeTick(double tick_seconds, double cpu_cores_allotted,
                                      double machine_disk_pressure) {
  InstanceTickReport report;
  report.cpu_demand_core_s = tick_.cpu_demand_core_s;
  report.disk_seconds = tick_.disk_seconds;
  report.mandatory_disk_seconds = tick_.mandatory_disk_seconds;
  report.write_bytes = tick_.write_bytes;
  report.read_bytes = tick_.read_bytes;
  report.pages_flushed = tick_.pages_flushed;
  report.pages_read = tick_.pages_read;
  report.log_fsyncs = tick_.log_fsyncs;
  report.checkpoint_active = checkpoint_active_;

  const double cpu_capacity = std::max(1e-9, cpu_cores_allotted * tick_seconds);
  const double rho_cpu = tick_.cpu_demand_core_s / cpu_capacity;
  const double rho_disk = machine_disk_pressure;
  const double rho = std::max(rho_cpu, rho_disk);
  report.cpu_utilization = rho_cpu;

  // Sustainable fraction of this tick's offered transactions.
  const double f = rho > 1.0 ? 1.0 / rho : 1.0;
  // When underutilized, backlog can be drained with spare capacity.
  const double catchup = rho < 1.0 ? std::min(1.0 / std::max(rho, 0.05), 2.0) : 1.0;
  // Queueing inflation for latency.
  const double inflation = 1.0 / (1.0 - std::min(rho, 0.98));

  const double read_latency_ms = PageReadLatencyMs();

  for (auto& [db, pd] : pending_) {
    InstanceTickReport::PerDb out;
    out.db = db;
    out.submitted = pd.submitted;

    const double demand =
        db->backlog_tx_ + static_cast<double>(pd.submitted);
    double completed = std::min(demand, static_cast<double>(pd.submitted) * f * catchup);
    if (pd.submitted == 0) completed = std::min(demand, db->backlog_tx_ * f);
    double backlog = demand - completed;
    // Shed load beyond the queue limit (admission control).
    const double queue_limit =
        std::max(1.0, static_cast<double>(pd.submitted) / tick_seconds *
                          config_.max_queue_seconds);
    double dropped = 0;
    if (backlog > queue_limit) {
      dropped = backlog - queue_limit;
      backlog = queue_limit;
    }
    db->backlog_tx_ = backlog;

    // Latency of a completed transaction.
    double latency_ms = 0;
    if (pd.has_profile && pd.submitted > 0) {
      const double n = static_cast<double>(pd.submitted);
      const double cpu_ms_per_tx = pd.cpu_seconds / n * 1e3;
      const double misses_per_tx = static_cast<double>(pd.misses) / n;
      latency_ms = pd.profile.base_latency_ms + cpu_ms_per_tx * inflation +
                   misses_per_tx * read_latency_ms *
                       (1.0 + std::min(rho_disk, 2.0)) +
                   tick_.commit_wait_ms;
      // Waiting time behind the backlog queue.
      if (backlog > 0 && completed > 0) {
        latency_ms += backlog / (completed / tick_seconds) * 1e3;
      }
      if (checkpoint_active_) latency_ms += config_.checkpoint_latency_ms;
    }
    out.completed = static_cast<int64_t>(std::llround(completed));
    out.avg_latency_ms = latency_ms;

    // Roll counters into the database.
    DbCounters delta;
    delta.submitted_tx = pd.submitted;
    delta.completed_tx = out.completed;
    delta.dropped_tx = static_cast<int64_t>(std::llround(dropped));
    delta.physical_reads = pd.misses;
    delta.file_cache_hits = pd.cache_hits;
    delta.read_rows = pd.read_rows;
    delta.update_rows = pd.update_rows;
    delta.pages_dirtied = pd.pages_dirtied;
    delta.log_bytes = pd.log_bytes;
    delta.cpu_seconds = pd.cpu_seconds;
    delta.latency_weighted_ms = latency_ms * completed;
    db->lifetime_.Accumulate(delta);
    db->window_.Accumulate(delta);

    report.per_db.push_back(out);
  }

  pending_.clear();
  return report;
}

uint64_t Dbms::RssBytes() const {
  return pool_.size() * config_.page_bytes + config_.dbms_ram_overhead_bytes;
}

uint64_t Dbms::ActiveBytes() const {
  // The kernel sees every resident buffer-pool page as recently used: the
  // DBMS cycles through them keeping them active.
  return pool_.size() * config_.page_bytes + config_.dbms_ram_overhead_bytes;
}

uint64_t Dbms::FileCacheBytes() const {
  return cache_ ? cache_->size() * config_.page_bytes : 0;
}

}  // namespace kairos::db
