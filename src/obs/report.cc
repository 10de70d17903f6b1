#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/export.h"

namespace kairos::obs {

namespace {

const int64_t* FindCounter(const MetricsSnapshot& snap,
                           const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return &v;
  }
  return nullptr;
}

const double* FindGauge(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.gauges) {
    if (n == name) return &v;
  }
  return nullptr;
}

const MetricsSnapshot::Hist* FindHist(const MetricsSnapshot& snap,
                                      const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

bool MatchesAny(const std::vector<std::string>& patterns,
                const std::string& name) {
  for (const std::string& pattern : patterns) {
    if (GlobMatch(pattern, name)) return true;
  }
  return false;
}

std::string Fmt(double v, int digits = 6) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

/// Numeric object member (null when absent or non-numeric).
const util::JsonValue* NumberField(const util::JsonValue& obj,
                                   const std::string& key) {
  const util::JsonValue* v = obj.Find(key);
  return (v != nullptr && v->is_number()) ? v : nullptr;
}

}  // namespace

bool GlobMatch(const std::string& pattern, const std::string& name) {
  const size_t star = pattern.find('*');
  if (star == std::string::npos) return pattern == name;
  const std::string prefix = pattern.substr(0, star);
  const std::string suffix = pattern.substr(star + 1);
  if (name.size() < prefix.size() + suffix.size()) return false;
  return name.compare(0, prefix.size(), prefix) == 0 &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::vector<KpiValue> ComputeDerivedKpis(const Sink& sink) {
  const MetricsSnapshot snap = sink.metrics().Snapshot();
  const std::vector<ProfileEntry> spans = BuildSpanProfile(sink.trace());

  double solve_seconds = 0;
  double solver_seconds = 0;
  for (const ProfileEntry& entry : spans) {
    if (entry.name == "solve") solve_seconds += entry.total_seconds;
    if (entry.name == "solver") solver_seconds += entry.total_seconds;
  }
  // Portfolio member spans measure actual solver time; standalone engine
  // runs only have "solve" spans.
  const double work_seconds = solver_seconds > 0 ? solver_seconds
                                                 : solve_seconds;

  std::vector<KpiValue> kpis;
  const int64_t* probes = FindCounter(snap, "engine.probes");
  if (probes != nullptr && solve_seconds > 0) {
    kpis.push_back({"probe_rate_per_sec",
                    static_cast<double>(*probes) / solve_seconds});
  }
  const int64_t* move_delta = FindCounter(snap, "evaluator.move_delta_ops");
  if (move_delta != nullptr && work_seconds > 0) {
    kpis.push_back({"move_delta_ops_per_sec",
                    static_cast<double>(*move_delta) / work_seconds});
  }
  const int64_t* evaluates = FindCounter(snap, "evaluator.evaluate_ops");
  if (evaluates != nullptr && work_seconds > 0) {
    kpis.push_back({"evaluate_ops_per_sec",
                    static_cast<double>(*evaluates) / work_seconds});
  }
  const int64_t* samples = FindCounter(snap, "controller.samples_ingested");
  const double* ingest_seconds = FindGauge(snap, "controller.ingest_seconds");
  if (samples != nullptr && ingest_seconds != nullptr &&
      *ingest_seconds > 0) {
    kpis.push_back({"online.samples_per_sec",
                    static_cast<double>(*samples) / *ingest_seconds});
  }
  const MetricsSnapshot::Hist* latency =
      FindHist(snap, "controller.detect_to_migrate_seconds");
  if (latency != nullptr && latency->total > 0) {
    kpis.push_back({"online.detect_to_migrate_mean_seconds",
                    latency->sum / static_cast<double>(latency->total)});
  }
  return kpis;
}

void WriteBenchReport(
    std::ostream& os, const std::string& bench_name,
    const std::vector<std::pair<std::string, std::string>>& config,
    const Sink& sink, const Profiler* profiler,
    const std::vector<KpiValue>& extra_kpis) {
  os << "{\n";
  os << "  \"schema_version\": " << kReportSchemaVersion << ",\n";
  os << "  \"bench\": " << JsonQuote(bench_name) << ",\n";

  os << "  \"config\": {";
  for (size_t i = 0; i < config.size(); ++i) {
    if (i > 0) os << ", ";
    os << JsonQuote(config[i].first) << ": " << JsonQuote(config[i].second);
  }
  os << "},\n";

  std::vector<KpiValue> kpis = ComputeDerivedKpis(sink);
  kpis.insert(kpis.end(), extra_kpis.begin(), extra_kpis.end());
  os << "  \"kpis\": {";
  for (size_t i = 0; i < kpis.size(); ++i) {
    if (i > 0) os << ", ";
    os << JsonQuote(kpis[i].name) << ": " << JsonNum(kpis[i].value);
  }
  os << "},\n";

  if (profiler != nullptr) {
    os << "  \"profile_sections\": [";
    const std::vector<ProfileEntry> sections = profiler->SectionProfile();
    for (size_t i = 0; i < sections.size(); ++i) {
      if (i > 0) os << ", ";
      os << "{\"name\": " << JsonQuote(sections[i].name)
         << ", \"count\": " << sections[i].count
         << ", \"total_seconds\": " << JsonNum(sections[i].total_seconds)
         << ", \"self_seconds\": " << JsonNum(sections[i].self_seconds)
         << "}";
    }
    os << "],\n";
  }

  ExportJsonFields(sink, os);
  os << "}\n";
}

void ApplyBaselineRules(const util::JsonValue& baseline,
                        DiffOptions* options) {
  const util::JsonValue* rules = baseline.Find("diff_rules");
  if (rules == nullptr || !rules->is_object()) return;
  if (const util::JsonValue* v = NumberField(*rules, "timing_ratio")) {
    options->timing_ratio = v->number;
  }
  if (const util::JsonValue* v = NumberField(*rules, "kpi_ratio")) {
    options->kpi_ratio = v->number;
  }
  if (const util::JsonValue* v = rules->Find("skip");
      v != nullptr && v->is_array()) {
    for (const util::JsonValue& p : v->array) {
      if (p.is_string()) options->skip.push_back(p.string);
    }
  }
  if (const util::JsonValue* v = rules->Find("exact_counters");
      v != nullptr && v->is_array()) {
    for (const util::JsonValue& p : v->array) {
      if (p.is_string()) options->exact_counters.push_back(p.string);
    }
  }
}

DiffResult DiffReports(const util::JsonValue& baseline,
                       const util::JsonValue& current,
                       const DiffOptions& options) {
  DiffResult result;
  auto fail = [&result](const std::string& msg) {
    result.ok = false;
    result.failures.push_back(msg);
  };
  auto note = [&result](const std::string& msg) {
    result.notes.push_back(msg);
  };

  if (!baseline.is_object() || !current.is_object()) {
    fail("baseline or current report is not a JSON object");
    return result;
  }

  // --- Identity: schema version + bench name must match. ------------------
  const util::JsonValue* base_version = NumberField(baseline, "schema_version");
  const util::JsonValue* cur_version = NumberField(current, "schema_version");
  if (base_version == nullptr || cur_version == nullptr ||
      base_version->number != cur_version->number) {
    fail("schema_version mismatch (baseline " +
         (base_version ? Fmt(base_version->number) : "absent") + ", current " +
         (cur_version ? Fmt(cur_version->number) : "absent") + ")");
    return result;
  }
  const util::JsonValue* base_bench = baseline.Find("bench");
  const util::JsonValue* cur_bench = current.Find("bench");
  if (base_bench == nullptr || cur_bench == nullptr ||
      !base_bench->is_string() || !cur_bench->is_string() ||
      base_bench->string != cur_bench->string) {
    fail("bench name mismatch");
    return result;
  }

  // --- Counters: exact, gated by skip / exact_counters. -------------------
  const util::JsonValue* base_counters = baseline.Find("counters");
  const util::JsonValue* cur_counters = current.Find("counters");
  if (base_counters != nullptr && base_counters->is_object()) {
    for (const auto& [name, base_value] : base_counters->object) {
      if (!base_value.is_number()) continue;
      if (MatchesAny(options.skip, name)) continue;
      const bool gated = options.exact_counters.empty() ||
                         MatchesAny(options.exact_counters, name);
      const util::JsonValue* cur_value =
          cur_counters != nullptr ? cur_counters->Find(name) : nullptr;
      if (cur_value == nullptr || !cur_value->is_number()) {
        if (gated) {
          fail("counter " + name + " missing from current report");
        } else {
          note("counter " + name + " missing from current report");
        }
        continue;
      }
      if (cur_value->number != base_value.number) {
        // Every digit: two plan digests may differ in their low bits only.
        const std::string msg = "counter " + name + ": baseline " +
                                Fmt(base_value.number, 17) + ", current " +
                                Fmt(cur_value->number, 17);
        if (gated) {
          fail(msg);
        } else {
          note(msg);
        }
      }
    }
  }
  if (cur_counters != nullptr && cur_counters->is_object() &&
      base_counters != nullptr && base_counters->is_object()) {
    for (const auto& [name, value] : cur_counters->object) {
      (void)value;
      if (base_counters->Find(name) == nullptr) {
        note("new counter " + name + " (not in baseline)");
      }
    }
  }

  // --- Timings: seconds-named gauges, ratio-bounded. ----------------------
  const util::JsonValue* base_gauges = baseline.Find("gauges");
  const util::JsonValue* cur_gauges = current.Find("gauges");
  if (base_gauges != nullptr && base_gauges->is_object()) {
    for (const auto& [name, base_value] : base_gauges->object) {
      if (!base_value.is_number()) continue;
      if (MatchesAny(options.skip, name)) continue;
      const util::JsonValue* cur_value =
          cur_gauges != nullptr ? cur_gauges->Find(name) : nullptr;
      if (cur_value == nullptr || !cur_value->is_number()) {
        note("gauge " + name + " missing from current report");
        continue;
      }
      const bool timing = name.find("seconds") != std::string::npos;
      if (timing && options.timing_ratio > 1 && base_value.number > 1e-9) {
        if (cur_value->number > base_value.number * options.timing_ratio) {
          fail("timing gauge " + name + ": current " + Fmt(cur_value->number) +
               "s > " + Fmt(options.timing_ratio) + "x baseline " +
               Fmt(base_value.number) + "s");
        }
      } else if (!timing && cur_value->number != base_value.number) {
        note("gauge " + name + ": baseline " + Fmt(base_value.number) +
             ", current " + Fmt(cur_value->number));
      }
    }
  }

  // --- Histograms: totals exact, sums are timings. ------------------------
  const util::JsonValue* base_hists = baseline.Find("histograms");
  const util::JsonValue* cur_hists = current.Find("histograms");
  if (base_hists != nullptr && base_hists->is_array()) {
    for (const util::JsonValue& bh : base_hists->array) {
      const util::JsonValue* bname = bh.Find("name");
      const util::JsonValue* btotal = NumberField(bh, "total");
      if (bname == nullptr || !bname->is_string() || btotal == nullptr) {
        continue;
      }
      if (MatchesAny(options.skip, bname->string)) continue;
      const util::JsonValue* ch = nullptr;
      if (cur_hists != nullptr && cur_hists->is_array()) {
        for (const util::JsonValue& candidate : cur_hists->array) {
          const util::JsonValue* cname = candidate.Find("name");
          if (cname != nullptr && cname->is_string() &&
              cname->string == bname->string) {
            ch = &candidate;
            break;
          }
        }
      }
      if (ch == nullptr) {
        fail("histogram " + bname->string + " missing from current report");
        continue;
      }
      const util::JsonValue* ctotal = NumberField(*ch, "total");
      if (ctotal == nullptr || ctotal->number != btotal->number) {
        fail("histogram " + bname->string + " total: baseline " +
             Fmt(btotal->number) + ", current " +
             (ctotal ? Fmt(ctotal->number) : "absent"));
      }
      const util::JsonValue* bsum = NumberField(bh, "sum");
      const util::JsonValue* csum = NumberField(*ch, "sum");
      if (options.timing_ratio > 1 && bsum != nullptr && csum != nullptr &&
          bsum->number > 1e-9 &&
          csum->number > bsum->number * options.timing_ratio) {
        fail("histogram " + bname->string + " sum: current " +
             Fmt(csum->number) + " > " + Fmt(options.timing_ratio) +
             "x baseline " + Fmt(bsum->number));
      }
    }
  }

  // --- KPIs: rate floors, latency ceilings, exact otherwise. --------------
  const util::JsonValue* base_kpis = baseline.Find("kpis");
  const util::JsonValue* cur_kpis = current.Find("kpis");
  if (base_kpis != nullptr && base_kpis->is_object()) {
    for (const auto& [name, base_value] : base_kpis->object) {
      if (!base_value.is_number()) continue;
      if (MatchesAny(options.skip, name)) continue;
      const util::JsonValue* cur_value =
          cur_kpis != nullptr ? cur_kpis->Find(name) : nullptr;
      if (cur_value == nullptr || !cur_value->is_number()) {
        fail("kpi " + name + " missing from current report");
        continue;
      }
      const bool rate = name.size() >= 8 &&
                        name.compare(name.size() - 8, 8, "_per_sec") == 0;
      const bool latency = !rate &&
                           name.find("seconds") != std::string::npos;
      if (rate) {
        if (options.kpi_ratio > 1 && base_value.number > 0 &&
            cur_value->number < base_value.number / options.kpi_ratio) {
          fail("kpi " + name + ": current " + Fmt(cur_value->number) +
               " < baseline " + Fmt(base_value.number) + " / " +
               Fmt(options.kpi_ratio));
        }
      } else if (latency) {
        if (options.kpi_ratio > 1 && base_value.number > 1e-9 &&
            cur_value->number > base_value.number * options.kpi_ratio) {
          fail("kpi " + name + ": current " + Fmt(cur_value->number) +
               "s > " + Fmt(options.kpi_ratio) + "x baseline " +
               Fmt(base_value.number) + "s");
        }
      } else {
        const double scale = std::max(std::fabs(base_value.number), 1.0);
        if (std::fabs(cur_value->number - base_value.number) >
            1e-6 * scale) {
          fail("kpi " + name + ": baseline " + Fmt(base_value.number) +
               ", current " + Fmt(cur_value->number));
        }
      }
    }
  }

  return result;
}

}  // namespace kairos::obs
