// Experiment driver: runs one or more workloads against a single-instance
// server for a span of simulated time, recording throughput, latency, and
// device statistics in sampling windows. All controlled experiments in
// tests/ and bench/ go through this.
#ifndef KAIROS_WORKLOAD_DRIVER_H_
#define KAIROS_WORKLOAD_DRIVER_H_

#include <memory>
#include <string>
#include <vector>

#include "db/server.h"
#include "util/rng.h"
#include "util/timeseries.h"
#include "workload/workload.h"

namespace kairos::workload {

/// Per-workload results of a run.
struct WorkloadRunStats {
  std::string name;
  util::TimeSeries tps;         ///< Completed transactions/sec per window.
  util::TimeSeries latency_ms;  ///< Mean completed-tx latency per window.
  util::TimeSeries update_rows_per_sec;  ///< Row-modification rate.
  int64_t total_completed = 0;
  int64_t total_submitted = 0;

  double MeanTps() const { return tps.Mean(); }
  double MeanLatencyMs() const;
};

/// Server-level results of a run.
struct ServerRunStats {
  util::TimeSeries write_mbps;       ///< Physical writes (log + flush).
  util::TimeSeries read_mbps;        ///< Physical reads.
  util::TimeSeries pages_read_per_sec;
  util::TimeSeries cpu_cores;        ///< CPU demand in cores.
  util::TimeSeries disk_utilization;
};

/// Results of one driver run.
struct RunResult {
  std::vector<WorkloadRunStats> workloads;
  ServerRunStats server;
  double duration_s = 0;
};

/// Drives workloads on one db::Server in fixed ticks.
class Driver {
 public:
  /// `tick_seconds` is the simulation step; sampling windows are multiples.
  Driver(db::Server* server, uint64_t seed, double tick_seconds = 0.1);

  /// Creates a tenant database for `w`, attaches it, and registers it.
  db::Database* AddWorkload(Workload* w);

  /// Pre-faults every workload's working set and clears window counters.
  void Warm();

  /// Runs for `seconds` of simulated time; returns stats sampled every
  /// `sample_window_s`.
  RunResult Run(double seconds, double sample_window_s = 1.0);

  db::Server* server() { return server_; }

 private:
  db::Server* server_;
  util::Rng rng_;
  double tick_seconds_;
  std::vector<Workload*> workloads_;
};

}  // namespace kairos::workload

#endif  // KAIROS_WORKLOAD_DRIVER_H_
