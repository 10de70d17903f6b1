// A TPC-C-like OLTP workload generator.
//
// This reproduces the knobs the paper manipulates: the number of warehouses
// controls data size and working set (~120-150 MB of hot data per
// warehouse), and the offered rate is throttleable. Transaction costs are
// aggregates over the five TPC-C transaction types weighted by the standard
// mix.
#ifndef KAIROS_WORKLOAD_TPCC_H_
#define KAIROS_WORKLOAD_TPCC_H_

#include <memory>

#include "workload/patterns.h"
#include "workload/workload.h"

namespace kairos::workload {

/// TPC-C-like workload scaled by warehouse count.
class TpccWorkload : public Workload {
 public:
  /// Bytes of on-disk data per warehouse.
  static constexpr uint64_t kDataBytesPerWarehouse = 200ULL * 1024 * 1024;
  /// Bytes of hot (working set) data per warehouse (~135 MB, matching the
  /// paper's 120-150 MB estimate).
  static constexpr uint64_t kHotBytesPerWarehouse = 135ULL * 1024 * 1024;

  /// `pattern` drives the offered rate over time.
  TpccWorkload(std::string name, int warehouses, std::shared_ptr<LoadPattern> pattern);

  void Attach(db::Database* database) override;
  db::TxBatch MakeBatch(double t, double dt, util::Rng& rng) override;
  uint64_t WorkingSetBytes() const override;
  uint64_t DataSizeBytes() const override;
  void Warm() override;

  /// The aggregate transaction profile (public so benches can reuse it).
  static db::TxProfile Profile();

 private:
  int warehouses_;
  std::shared_ptr<LoadPattern> pattern_;
  db::Region* region_ = nullptr;
  std::unique_ptr<ZipfSampler> sampler_;
  uint64_t page_bytes_ = db::kDefaultPageBytes;
};

}  // namespace kairos::workload

#endif  // KAIROS_WORKLOAD_TPCC_H_
