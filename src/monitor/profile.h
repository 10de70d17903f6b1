// WorkloadProfile: the resource time series describing one workload, as
// produced by the resource monitor (or imported from historical rrdtool
// statistics). This is the input record of the consolidation engine.
#ifndef KAIROS_MONITOR_PROFILE_H_
#define KAIROS_MONITOR_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/timeseries.h"

namespace kairos::monitor {

/// Per-workload resource utilization over time, normalized to standard
/// cores and bytes.
struct WorkloadProfile {
  std::string name;

  /// CPU used, in standard cores, including the per-instance OS+DBMS
  /// overhead of the dedicated source server (the combined-load estimator
  /// removes the duplicated overhead when co-locating).
  util::TimeSeries cpu_cores;

  /// RAM the workload actually needs (buffer pool gauging result, or
  /// scaled-down historical allocation when gauging was not possible).
  util::TimeSeries ram_bytes;

  /// Row-modification rate (updates+inserts+deletes), the disk model's
  /// load input.
  util::TimeSeries update_rows_per_sec;

  /// Working set size, the disk model's size input.
  double working_set_bytes = 0;

  /// --- Raw OS-reported statistics, kept for the naive-baseline
  /// comparisons of Figure 6 ---
  /// Allocated (RSS) memory as the OS reports it (overestimate).
  util::TimeSeries os_ram_bytes;
  /// Physical write throughput as iostat reports it on the dedicated
  /// server, including idle-time flushing (overestimate of requirement).
  util::TimeSeries os_write_bytes_per_sec;

  /// Number of replicas to place (each on a distinct server).
  int replicas = 1;
  /// If >= 0, this workload must be placed on that server index.
  int pinned_server = -1;
};

/// Summary statistics of one profile — the compact fingerprint the online
/// drift detector compares between the profile a plan was solved against
/// and the live rolling profile.
struct ProfileStats {
  double mean_cpu_cores = 0;
  double p95_cpu_cores = 0;
  double peak_cpu_cores = 0;
  double mean_ram_bytes = 0;
  double p95_ram_bytes = 0;
  double peak_ram_bytes = 0;
  double p95_update_rows_per_sec = 0;
  double working_set_bytes = 0;
};

/// Read-only view of one signal's window held in a ring of `size` slots
/// spaced `stride` doubles apart from `base`. Oldest first, the samples sit
/// in slots oldest, oldest + 1, ..., size - 1, then 0, ..., oldest - 1; a
/// plain array of n samples is the view {data, 1, 0, n}.
struct WindowView {
  const double* base = nullptr;
  size_t stride = 1;
  size_t oldest = 0;
  size_t size = 0;
};

/// The fingerprint kernel. One oldest-first pass reads the three windows
/// side by side and, per window, sums for the mean (in
/// util::TimeSeries::Mean's order), keeps the peak (std::max_element's
/// first largest) and keeps the p95's upper tail in a util::UpperTail.
/// Windows whose p95 tail is longer than util::kInsertionTail (W >= 142),
/// or of unequal sizes, are gathered into per-thread scratch for
/// util::PercentileInPlace instead. The views are only read. Summarize and
/// the streaming builder's Stats both call it, so the fingerprint has one
/// definition, byte-identical to sorting each window.
ProfileStats SummarizeWindow(WindowView cpu_cores, WindowView ram_bytes,
                             WindowView update_rows_per_sec,
                             double working_set_bytes);

/// Computes the summary fingerprint of a profile (SummarizeWindow over
/// views of its series).
ProfileStats Summarize(const WorkloadProfile& profile);

}  // namespace kairos::monitor

#endif  // KAIROS_MONITOR_PROFILE_H_
