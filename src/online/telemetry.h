// Telemetry ingestion for the online consolidation controller: one
// TelemetrySample per workload per monitoring step, pulled from a
// ReplayFeed. A feed replays historical rrdtool-style series
// (trace::Dataset / trace::MakeScenario profiles) or re-shapes a live
// workload::Driver run into per-workload samples.
#ifndef KAIROS_ONLINE_TELEMETRY_H_
#define KAIROS_ONLINE_TELEMETRY_H_

#include <string>
#include <vector>

#include "monitor/profile.h"
#include "workload/driver.h"

namespace kairos::obs {
class Counter;
class Sink;
}  // namespace kairos::obs

namespace kairos::online {

/// One monitoring window's measurements for one workload.
struct TelemetrySample {
  double cpu_cores = 0;
  double ram_bytes = 0;
  double update_rows_per_sec = 0;
  double working_set_bytes = 0;
};

/// A stream of telemetry steps replaying pre-recorded per-step samples
/// (e.g. converted trace series); each step yields one sample per workload,
/// in a fixed workload order.
class ReplayFeed {
 public:
  ReplayFeed(std::vector<std::string> names,
             std::vector<std::vector<TelemetrySample>> steps);

  /// One step per series sample (the shortest series bounds the horizon).
  static ReplayFeed FromProfiles(const std::vector<monitor::WorkloadProfile>& profiles);

  /// Re-shapes a workload::Driver run: the server's measured CPU demand is
  /// apportioned to workloads by their per-window throughput share, the
  /// row-modification rates are taken per workload, and RAM is the caller's
  /// per-workload working set (the driver's server is shared, so per-tenant
  /// RAM is not directly observable).
  static ReplayFeed FromRun(const workload::RunResult& run,
                            const std::vector<double>& working_set_bytes);

  int num_workloads() const { return static_cast<int>(names_.size()); }
  std::string workload_name(int w) const { return names_[w]; }
  int steps_total() const { return static_cast<int>(steps_.size()); }

  /// Fills `out` (resized to num_workloads()) with the next step's samples.
  /// Returns false when the feed is exhausted (out untouched).
  bool Next(std::vector<TelemetrySample>* out);

  /// Attaches an observability sink: every successful Next() counts into
  /// "telemetry.steps_emitted" / "telemetry.samples_emitted". Counter
  /// handles are cached here once, so the per-step cost is two relaxed
  /// adds; a null sink detaches (one branch per step).
  void AttachSink(obs::Sink* sink);

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<TelemetrySample>> steps_;  // [step][workload]
  size_t cursor_ = 0;
  obs::Counter* steps_emitted_ = nullptr;
  obs::Counter* samples_emitted_ = nullptr;
};

}  // namespace kairos::online

#endif  // KAIROS_ONLINE_TELEMETRY_H_
