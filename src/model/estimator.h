// Combined load estimator (Section 4): predicts the resource consumption of
// several workloads consolidated into one DBMS instance.
//   CPU: sum of per-workload CPU minus the duplicated per-instance
//        OS+DBMS overhead.
//   RAM: sum of gauged working sets (plus one instance's overhead).
//   Disk: the nonlinear DiskModel evaluated at the aggregate working set
//        and aggregate row-update rate.
// A naive baseline (straight sums of OS metrics) is provided for the
// Figure 6 comparison.
#ifndef KAIROS_MODEL_ESTIMATOR_H_
#define KAIROS_MODEL_ESTIMATOR_H_

#include <vector>

#include "model/disk_model.h"
#include "monitor/profile.h"
#include "util/timeseries.h"

namespace kairos::model {

/// Predicted combined utilization over time.
struct CombinedPrediction {
  util::TimeSeries cpu_cores;
  util::TimeSeries ram_bytes;
  util::TimeSeries disk_write_bytes_per_sec;
  double total_working_set_bytes = 0;
};

/// Estimates combined resource consumption of co-located workloads.
class CombinedLoadEstimator {
 public:
  /// `disk_model` may be null, in which case disk predictions fall back to
  /// summed OS write statistics. `per_instance_cpu_overhead_cores` is the
  /// experimentally determined OS+DBMS background load included in each
  /// dedicated-server profile; (N-1) copies are removed when combining N
  /// workloads. `instance_ram_overhead_bytes` is the single consolidated
  /// instance's process overhead.
  CombinedLoadEstimator(const DiskModel* disk_model,
                        double per_instance_cpu_overhead_cores,
                        uint64_t instance_ram_overhead_bytes = 0);

  /// Model-based combined prediction (Kairos).
  CombinedPrediction Combine(
      const std::vector<const monitor::WorkloadProfile*>& profiles) const;

  /// Naive baseline: straight sums of the OS-reported statistics.
  static CombinedPrediction NaiveSum(
      const std::vector<const monitor::WorkloadProfile*>& profiles);

 private:
  const DiskModel* disk_model_;
  double per_instance_cpu_overhead_cores_;
  uint64_t instance_ram_overhead_bytes_;
};

}  // namespace kairos::model

#endif  // KAIROS_MODEL_ESTIMATOR_H_
