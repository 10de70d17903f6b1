// Workload generator interface plus common page samplers.
#ifndef KAIROS_WORKLOAD_WORKLOAD_H_
#define KAIROS_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>

#include "db/database.h"
#include "db/dbms.h"
#include "db/tx_profile.h"
#include "util/rng.h"

namespace kairos::workload {

/// Samples pages uniformly from the first `hot_pages` pages of a region
/// (the workload's working set), with an optional cold tail probability.
class HotSetSampler : public db::PageSampler {
 public:
  /// `cold_probability` of touching a page outside the hot set (uniform over
  /// the whole region), modelling occasional scans of cold data.
  HotSetSampler(const db::Region* region, uint64_t hot_pages,
                double cold_probability = 0.0);

  db::PageId SampleRead(util::Rng& rng) override;
  db::PageId SampleUpdate(util::Rng& rng) override;

  uint64_t hot_pages() const { return hot_pages_; }

 private:
  db::PageId Sample(util::Rng& rng);
  const db::Region* region_;
  uint64_t hot_pages_;
  double cold_probability_;
};

/// Samples pages from a region's hot set with Zipf skew.
class ZipfSampler : public db::PageSampler {
 public:
  ZipfSampler(const db::Region* region, uint64_t hot_pages, double theta);

  db::PageId SampleRead(util::Rng& rng) override;
  db::PageId SampleUpdate(util::Rng& rng) override;

 private:
  const db::Region* region_;
  uint64_t hot_pages_;
  double theta_;
};

/// Pre-faults the first `hot_pages` of `region` into the buffer pool in
/// descending page order, so that when the pool is smaller than the hot
/// set, the LOW page ids — the most popular ranks under a Zipf access
/// distribution — end up resident (what a warmed-up production cache
/// converges to).
void WarmDescending(db::Database* database, const db::Region& region,
                    uint64_t hot_pages);

/// A transactional workload: owns its table layout, access distribution,
/// transaction profile, and offered-rate schedule.
class Workload {
 public:
  explicit Workload(std::string name) : name_(std::move(name)) {}
  virtual ~Workload() = default;

  const std::string& name() const { return name_; }

  /// Creates this workload's tables inside `database` and sets up samplers.
  /// Must be called exactly once before MakeBatch.
  virtual void Attach(db::Database* database) = 0;

  /// Produces the offered transactions for the tick [t, t+dt).
  virtual db::TxBatch MakeBatch(double t, double dt, util::Rng& rng) = 0;

  /// The application's true working set (bytes) — what buffer pool gauging
  /// should discover.
  virtual uint64_t WorkingSetBytes() const = 0;

  /// Total on-disk data size (bytes).
  virtual uint64_t DataSizeBytes() const = 0;

  /// Pre-faults the working set into the buffer pool so experiments start
  /// warm (equivalent to a warm-up run).
  virtual void Warm() = 0;

  /// The database this workload is attached to (nullptr before Attach).
  db::Database* database() const { return database_; }

 protected:
  std::string name_;
  db::Database* database_ = nullptr;
};

}  // namespace kairos::workload

#endif  // KAIROS_WORKLOAD_WORKLOAD_H_
