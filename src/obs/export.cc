#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "obs/profile.h"

namespace kairos::obs {

namespace {

const char* KindName(EventKind kind) {
  switch (kind) {
    case EventKind::kBegin: return "begin";
    case EventKind::kEnd: return "end";
    case EventKind::kPoint: break;
  }
  return "point";
}

struct NamedEvent {
  const TraceEvent* e;
  const std::string* track;
  const std::string* name;
};

}  // namespace

/// JSON string escaping for the metric/track names we emit (plain ASCII
/// identifiers in practice, but stay correct for anything).
std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

/// JSON-safe double (nan/inf have no JSON literal; emit null).
std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

namespace {

/// Local shorthands so the exporter body reads as before.
std::string Quote(const std::string& s) { return JsonQuote(s); }
std::string Num(double v) { return JsonNum(v); }

}  // namespace

void ExportJsonFields(const Sink& sink, std::ostream& os) {
  const MetricsSnapshot snap = sink.metrics().Snapshot();
  const std::vector<TraceEvent> events = sink.trace().MergedTrace();
  const std::vector<std::string> tracks = sink.trace().TrackNames();
  const std::vector<std::string> names = sink.trace().EventNames();

  std::vector<NamedEvent> named;
  named.reserve(events.size());
  for (const TraceEvent& e : events) {
    if (e.track >= tracks.size() || e.name >= names.size()) continue;
    named.push_back({&e, &tracks[e.track], &names[e.name]});
  }

  os << "  \"meta\": {\"wall_seconds\": " << Num(sink.trace().WallSeconds())
     << ", \"dropped_events\": " << sink.trace().dropped_events()
     << ", \"wall_bucket_seconds\": " << Num(kWallBucketSeconds) << "},\n";

  // --- Raw metrics (sorted-name order from the snapshot). -----------------
  os << "  \"counters\": {";
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    if (i > 0) os << ", ";
    os << Quote(snap.counters[i].first) << ": " << snap.counters[i].second;
  }
  os << "},\n";

  os << "  \"gauges\": {";
  for (size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i > 0) os << ", ";
    os << Quote(snap.gauges[i].first) << ": " << Num(snap.gauges[i].second);
  }
  os << "},\n";

  os << "  \"histograms\": [";
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    if (i > 0) os << ", ";
    os << "{\"name\": " << Quote(h.name) << ", \"bounds\": [";
    for (size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) os << ", ";
      os << Num(h.bounds[b]);
    }
    os << "], \"counts\": [";
    for (size_t b = 0; b < h.counts.size(); ++b) {
      if (b > 0) os << ", ";
      os << h.counts[b];
    }
    os << "], \"total\": " << h.total << ", \"sum\": " << Num(h.sum) << "}";
  }
  os << "],\n";

  // --- Derived view: probe attempts. --------------------------------------
  os << "  \"probes\": [";
  bool first = true;
  for (const NamedEvent& ne : named) {
    if (*ne.name != "probe" && *ne.name != "budget_probe") continue;
    if (!first) os << ", ";
    first = false;
    os << "{\"track\": " << Quote(*ne.track) << ", \"type\": " << Quote(*ne.name)
       << ", \"size\": " << ne.e->i0 << ", \"feasible\": " << ne.e->i1
       << ", \"detail\": " << Num(ne.e->d0)
       << ", \"wall\": " << Num(ne.e->wall_seconds) << "}";
  }
  os << "],\n";

  // --- Derived view: per-solver incumbent-improvement curves. -------------
  std::map<std::string, std::vector<const TraceEvent*>> curves;
  for (const NamedEvent& ne : named) {
    if (*ne.name == "incumbent") curves[*ne.track].push_back(ne.e);
  }
  os << "  \"incumbent_curves\": {";
  first = true;
  for (const auto& [track, points] : curves) {
    if (!first) os << ", ";
    first = false;
    os << Quote(track) << ": [";
    for (size_t i = 0; i < points.size(); ++i) {
      const TraceEvent& e = *points[i];
      if (i > 0) os << ", ";
      os << "{\"iteration\": " << e.i0 << ", \"feasible\": " << e.i1
         << ", \"objective\": " << Num(e.d0) << ", \"wall_bucket\": "
         << static_cast<int64_t>(e.wall_seconds / kWallBucketSeconds) << "}";
    }
    os << "]";
  }
  os << "},\n";

  // --- Derived view: controller stage timeline + latency. -----------------
  os << "  \"controller\": {\"stages\": [";
  first = true;
  for (const NamedEvent& ne : named) {
    if (*ne.name != "detect" && *ne.name != "resolve" && *ne.name != "plan" &&
        *ne.name != "ledger") {
      continue;
    }
    if (!first) os << ", ";
    first = false;
    os << "{\"step\": " << ne.e->i0 << ", \"stage\": " << Quote(*ne.name)
       << ", \"value\": " << ne.e->i1 << ", \"seconds\": " << Num(ne.e->d0)
       << ", \"wall\": " << Num(ne.e->wall_seconds) << "}";
  }
  os << "], \"detection_to_migration_seconds\": [";
  first = true;
  for (const NamedEvent& ne : named) {
    if (*ne.name != "detect_to_migrate") continue;
    if (!first) os << ", ";
    first = false;
    os << Num(ne.e->d0);
  }
  os << "]},\n";

  // --- Derived view: per-(track, event) span self/total profile. ----------
  const std::vector<ProfileEntry> span_profile = BuildSpanProfile(sink.trace());
  os << "  \"span_profile\": [";
  for (size_t i = 0; i < span_profile.size(); ++i) {
    const ProfileEntry& entry = span_profile[i];
    if (i > 0) os << ", ";
    os << "{\"track\": " << Quote(entry.track) << ", \"name\": "
       << Quote(entry.name) << ", \"count\": " << entry.count
       << ", \"total_seconds\": " << Num(entry.total_seconds)
       << ", \"self_seconds\": " << Num(entry.self_seconds) << "}";
  }
  os << "],\n";

  // --- Full merged trace. --------------------------------------------------
  os << "  \"events\": [";
  for (size_t i = 0; i < named.size(); ++i) {
    const NamedEvent& ne = named[i];
    if (i > 0) os << ", ";
    os << "{\"track\": " << Quote(*ne.track) << ", \"name\": " << Quote(*ne.name)
       << ", \"kind\": \"" << KindName(ne.e->kind) << "\", \"seq\": " << ne.e->seq
       << ", \"wall\": " << Num(ne.e->wall_seconds) << ", \"i0\": " << ne.e->i0
       << ", \"i1\": " << ne.e->i1 << ", \"d0\": " << Num(ne.e->d0)
       << ", \"d1\": " << Num(ne.e->d1) << "}";
  }
  os << "]\n";
}

}  // namespace kairos::obs
