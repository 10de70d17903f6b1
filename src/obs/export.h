// The JSON exporter of the observability substrate: the sink's fields of
// the bench reports (`--metrics-out=<path>` writes them through
// WriteBenchReport in obs/report.h, and CI validates them).
//
// The fields carry the raw substrate (counters, gauges, histograms, the
// full merged trace) plus derived views keyed for the analyses the ROADMAP
// benches need:
//
//   "probes"                  — every engine probe attempt (count-prefix
//                               "probe" and cost-budget "budget_probe"
//                               events) with size/feasibility/detail.
//   "incumbent_curves"        — per-solver objective-vs-iteration curves
//                               ("incumbent" events grouped by track), each
//                               point carrying a coarse wall bucket.
//   "controller"              — the online controller's per-stage timeline
//                               (detect / resolve / plan / ledger) and the
//                               "detection_to_migration_seconds" latencies.
//   "span_profile"            — per-(track, event) self/total wall-time
//                               aggregation of the kBegin/kEnd spans
//                               (obs/profile.h).
//
// Wall-clock fields are machine-dependent; everything else is deterministic
// for a deterministic workload (see trace.h).
#ifndef KAIROS_OBS_EXPORT_H_
#define KAIROS_OBS_EXPORT_H_

#include <ostream>
#include <string>

#include "obs/sink.h"

namespace kairos::obs {

/// Wall-bucket width for incumbent-curve points: wall_bucket =
/// floor(wall_seconds / kWallBucketSeconds).
inline constexpr double kWallBucketSeconds = 0.01;

/// Writes the fields described above — no enclosing braces, no trailing
/// comma — so composite documents (bench reports, report.h) can embed the
/// standard sink dump alongside their own fields.
void ExportJsonFields(const Sink& sink, std::ostream& os);

/// JSON string escaping (quotes included).
std::string JsonQuote(const std::string& s);

/// JSON-safe double literal (nan/inf have no JSON literal; emits null).
std::string JsonNum(double v);

}  // namespace kairos::obs

#endif  // KAIROS_OBS_EXPORT_H_
