// Drift detection: decides *when* the online controller should re-solve.
// Two triggers, checked in priority order:
//   1. violation forecast — the incumbent placement no longer fits the
//      rolling profiles (fires immediately, ignoring the cooldown);
//   2. profile drift — some workload's rolling p95 CPU or RAM fingerprint
//      deviates from the fingerprint captured at the last solve by more
//      than a relative threshold (with absolute floors so idle workloads
//      don't flap).
//
// The controller checks the forecast itself; the detector owns the drift
// scan. The scan decomposes over stream ranges: ScanRange(current, b, e)
// counts the drifted streams in [b, e) and remembers the first, so the
// striped ingestion tier can scan each shard's stripe on its own worker,
// and Decide(stripe_scans) folds the per-stripe results in stripe order —
// the same decision at every stripe and thread count. The decision also reports
// *how many* streams (and shards) drifted; those counts are observability
// only: every drift decision triggers the same global re-solve.
#ifndef KAIROS_ONLINE_DRIFT_H_
#define KAIROS_ONLINE_DRIFT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "monitor/profile.h"

namespace kairos::online {

struct DriftConfig {
  /// Fractional deviation of a workload's p95 fingerprint that counts as
  /// drift.
  double relative_threshold = 0.30;
  /// Deviation floors: changes below these never count as drift.
  double absolute_cpu_floor_cores = 0.15;
  double absolute_ram_floor_bytes = 1.0 * 1024 * 1024 * 1024;
  /// Steps after a solve during which profile drift is ignored (violation
  /// forecasts are not).
  int cooldown_steps = 6;
};

/// Result of scanning one stream range for drift.
struct DriftScan {
  int first_stream = -1;    ///< lowest-indexed drifted stream, -1 if none
  int drifted_streams = 0;  ///< drifted streams in the scanned range
};

struct DriftDecision {
  bool resolve = false;
  std::string reason;  // "violation-forecast", "drift:<workload>", or ""
  /// Lowest-indexed drifted stream (-1 for violation forecasts / no drift).
  int first_stream = -1;
  /// Streams past the drift threshold (0 for violation forecasts).
  int drifted_streams = 0;
  /// Ingest shards with at least one drifted stream. Depends on the stripe
  /// layout (observability only — never on the transcript).
  int drifted_shards = 0;
};

class DriftDetector {
 public:
  explicit DriftDetector(const DriftConfig& config) : config_(config) {}

  /// Captures the fingerprints a fresh plan was solved against.
  void Rebase(int step, std::vector<monitor::ProfileStats> reference);

  /// False when no drift scan should run at `step`: no reference yet, a
  /// stream-count mismatch, or inside the post-solve cooldown.
  bool ScanEnabled(int step, size_t num_streams) const;

  /// Scans streams [begin, end) against the reference. Pure read — safe to
  /// run concurrently over disjoint ranges. Call only when ScanEnabled.
  DriftScan ScanRange(const std::vector<monitor::ProfileStats>& current,
                      int begin, int end) const;

  /// Builds the decision from a folded scan. `drifted_shards` is the number
  /// of stripes whose scan found drift.
  DriftDecision Decide(const DriftScan& folded, int drifted_shards) const;

  /// Folds per-stripe scans in stripe order — first_stream is then the
  /// lowest-indexed drifted stream — and builds the decision from the fold.
  DriftDecision Decide(const std::vector<DriftScan>& stripe_scans) const;

 private:
  DriftConfig config_;
  int rebased_step_ = -1;
  std::vector<monitor::ProfileStats> reference_;
};

}  // namespace kairos::online

#endif  // KAIROS_ONLINE_DRIFT_H_
