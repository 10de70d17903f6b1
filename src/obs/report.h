// Versioned bench-report schema + the baseline diff engine behind
// tools/metrics_diff.
//
// Every bench executable (bench_common.h's BenchReporter) writes one
// `BENCH_<name>.json` per run:
//
//   {
//     "schema_version": 1,
//     "bench": "<name>",
//     "config": {"smoke": "1", "seed": "2026", ...},   // string echoes
//     "kpis": {"probe_rate_per_sec": ..., ...},        // derived numbers
//     "profile_sections": [...],                       // Profiler sections
//     ... the standard sink fields (obs/export.h): meta, counters,
//     gauges, histograms, probes, incumbent_curves, controller,
//     span_profile, events ...
//   }
//
// Reports are diffed against checked-in baselines (bench/baselines/) by
// DiffReports with per-metric tolerance classes:
//
//   counters    — exact (they are deterministic for a deterministic
//                 workload); a baseline's "diff_rules.exact_counters"
//                 glob list restricts which ones must match, so
//                 FP-trajectory-sensitive counts (iteration-dependent
//                 improvement tallies) can be left out of the gate.
//   timings     — "seconds"-named gauges and histogram sums are wall
//                 clock; compared only when timing_ratio > 1, failing
//                 when current > baseline * timing_ratio.
//   KPIs        — "*_per_sec" rates fail below baseline / kpi_ratio
//                 (floor); "*seconds*" latencies fail above
//                 baseline * kpi_ratio (ceiling); anything else must
//                 match to ~1e-6 relative.
//
// A baseline may embed its own rules under "diff_rules"
// ({"exact_counters": [...], "skip": [...], "timing_ratio": N,
// "kpi_ratio": N}); precedence is defaults < baseline rules < caller
// overrides (CLI flags).
#ifndef KAIROS_OBS_REPORT_H_
#define KAIROS_OBS_REPORT_H_

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/profile.h"
#include "obs/sink.h"
#include "util/json.h"

namespace kairos::obs {

/// Bumped whenever the report layout changes incompatibly; DiffReports
/// refuses to compare mismatched versions.
inline constexpr int kReportSchemaVersion = 1;

/// One derived KPI (name suffix conventions drive the diff rules above).
struct KpiValue {
  std::string name;
  double value = 0;
};

/// KPIs computable from the sink alone. Emitted only when their inputs
/// exist (a fig bench with no online controller gets no samples/sec):
///   probe_rate_per_sec            engine.probes / Σ "solve" span seconds
///   move_delta_ops_per_sec        evaluator.move_delta_ops / Σ solver
///                                 span seconds (falls back to "solve")
///   evaluate_ops_per_sec          likewise for evaluator.evaluate_ops
///   online.samples_per_sec        controller.samples_ingested /
///                                 controller.ingest_seconds gauge
///   online.detect_to_migrate_mean_seconds
///                                 histogram sum / total
std::vector<KpiValue> ComputeDerivedKpis(const Sink& sink);

/// Writes one complete BENCH_<name>.json document. `config` entries are
/// echoed as string key/values; `extra_kpis` are appended after the
/// derived ones (later duplicates win at read time — object order is
/// preserved). `profiler` may be null (no "profile_sections" field).
void WriteBenchReport(std::ostream& os, const std::string& bench_name,
                      const std::vector<std::pair<std::string, std::string>>&
                          config,
                      const Sink& sink, const Profiler* profiler,
                      const std::vector<KpiValue>& extra_kpis);

/// Tolerance configuration for DiffReports. Patterns are simple globs
/// with at most one '*'.
struct DiffOptions {
  /// Timing comparisons (seconds-gauges, histogram sums) run only when
  /// > 1; current > baseline * timing_ratio fails.
  double timing_ratio = 0;
  /// KPI rate floor / latency ceiling factor; <= 1 skips KPI bounds.
  double kpi_ratio = 4.0;
  /// Metrics matching any pattern are ignored entirely.
  std::vector<std::string> skip;
  /// When non-empty, only counters matching a pattern must be exact;
  /// the rest are informational.
  std::vector<std::string> exact_counters;
};

struct DiffResult {
  bool ok = true;
  std::vector<std::string> failures;  ///< Regressions (gate on these).
  std::vector<std::string> notes;     ///< Informational drift.
};

/// Overlays the baseline's embedded "diff_rules" (when present) onto
/// `options`. Fields absent from diff_rules keep their current values.
void ApplyBaselineRules(const util::JsonValue& baseline, DiffOptions* options);

/// Compares a freshly produced report against a baseline report (both
/// parsed JSON roots). Never throws; malformed documents fail the diff.
DiffResult DiffReports(const util::JsonValue& baseline,
                       const util::JsonValue& current,
                       const DiffOptions& options);

/// Glob match with at most one '*' (more stars than one: literal compare
/// of the first segment + suffix). Exposed for tests.
bool GlobMatch(const std::string& pattern, const std::string& name);

}  // namespace kairos::obs

#endif  // KAIROS_OBS_REPORT_H_
