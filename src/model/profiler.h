// Automated disk-profiling tool (Section 4.1): sweeps a synthetic OLTP
// workload over a grid of (working set size, row update rate) on a given
// machine/DBMS configuration, recording achieved update rates and write
// throughput. The paper collects ~7,000 points in about two hours on real
// hardware; the simulated sweep uses a coarser grid.
#ifndef KAIROS_MODEL_PROFILER_H_
#define KAIROS_MODEL_PROFILER_H_

#include <cstdint>
#include <vector>

#include "db/dbms.h"
#include "model/disk_model.h"
#include "sim/machine.h"

namespace kairos::model {

/// Grid and run-length configuration for the profiling sweep.
struct ProfilerConfig {
  std::vector<double> working_set_bytes;  ///< Sizes to sweep.
  std::vector<double> rows_per_sec;       ///< Update rates to sweep.
  double warmup_seconds = 2.0;
  double measure_seconds = 6.0;
  double tick_seconds = 0.1;
  /// Achieved/target below this ratio flags a saturated point.
  double saturation_ratio = 0.93;
  /// Updates per synthetic transaction (the sweep varies rate, not shape).
  double updates_per_tx = 10.0;

  /// Tiny grid for unit tests.
  static ProfilerConfig Small();
};

/// Runs the sweep on a simulated machine and fits a DiskModel.
class DiskModelProfiler {
 public:
  DiskModelProfiler(const sim::MachineSpec& machine, const db::DbmsConfig& dbms_config,
                    const ProfilerConfig& config);

  /// Collects the raw grid measurements.
  std::vector<ProfilePoint> CollectPoints(uint64_t seed) const;

  /// Collects points and fits the model.
  DiskModel BuildModel(uint64_t seed) const;

  /// Measures a single grid point (exposed for tests and Figure 12).
  ProfilePoint MeasurePoint(double working_set_bytes, double rows_per_sec,
                            uint64_t seed) const;

 private:
  sim::MachineSpec machine_;
  db::DbmsConfig dbms_config_;
  ProfilerConfig config_;
};

}  // namespace kairos::model

#endif  // KAIROS_MODEL_PROFILER_H_
