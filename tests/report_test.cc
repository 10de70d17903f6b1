// Tests for the versioned bench-report schema and the baseline diff engine
// (obs/report.h) that tools/metrics_diff gates CI on.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/profile.h"
#include "obs/report.h"
#include "obs/sink.h"
#include "util/json.h"

namespace kairos {
namespace {

using util::JsonValue;

std::string ReportString(const obs::Sink& sink,
                         const obs::Profiler* profiler = nullptr,
                         const std::vector<obs::KpiValue>& kpis = {}) {
  std::ostringstream os;
  obs::WriteBenchReport(os, "unit", {{"smoke", "1"}}, sink, profiler, kpis);
  return os.str();
}

JsonValue MustParse(const std::string& text) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(JsonValue::Parse(text, &doc, &error)) << error;
  return doc;
}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

TEST(ReportSchemaTest, EmptySinkStillEmitsEveryTopLevelField) {
  // A bench that recorded nothing must still produce a schema-complete,
  // parseable document (satellite: empty registry snapshot export).
  obs::Sink sink;
  const JsonValue doc = MustParse(ReportString(sink));
  for (const char* key :
       {"schema_version", "bench", "config", "kpis", "meta", "counters",
        "gauges", "histograms", "probes", "incumbent_curves", "controller",
        "span_profile", "events"}) {
    EXPECT_NE(doc.Find(key), nullptr) << key;
  }
  EXPECT_DOUBLE_EQ(doc.Find("schema_version")->number,
                   obs::kReportSchemaVersion);
  EXPECT_EQ(doc.Find("bench")->string, "unit");
  EXPECT_EQ(doc.Find("config")->Find("smoke")->string, "1");
  EXPECT_TRUE(doc.Find("counters")->object.empty());
  EXPECT_TRUE(doc.Find("events")->array.empty());
  // No profiler passed: the optional section is absent, not empty.
  EXPECT_EQ(doc.Find("profile_sections"), nullptr);
}

TEST(ReportSchemaTest, TraceRingOverflowIsAccountedInMeta) {
  obs::Sink sink(/*trace_ring_capacity=*/8);
  const uint32_t track = sink.trace().InternTrack("t");
  const uint32_t name = sink.trace().InternName("e");
  for (int i = 0; i < 20; ++i) {
    sink.trace().Emit(track, name, obs::EventKind::kPoint, i);
  }
  const JsonValue doc = MustParse(ReportString(sink));
  const JsonValue* meta = doc.Find("meta");
  ASSERT_NE(meta, nullptr);
  ASSERT_NE(meta->Find("dropped_events"), nullptr);
  EXPECT_DOUBLE_EQ(meta->Find("dropped_events")->number, 12.0);
  EXPECT_EQ(doc.Find("events")->array.size(), 8u);
}

TEST(ReportSchemaTest, HistogramObservationExactlyOnBucketBound) {
  // A value exactly on a bucket's upper bound lands in that bucket, and the
  // JSON carries it there (satellite: bound-exact observation).
  obs::Sink sink;
  obs::Histogram* h =
      sink.metrics().histogram("lat_seconds", {0.1, 1.0, 10.0});
  h->Observe(1.0);  // exactly the second bound -> bucket "<=1"
  const JsonValue doc = MustParse(ReportString(sink));
  const JsonValue* hist = nullptr;
  for (const JsonValue& entry : doc.Find("histograms")->array) {
    if (entry.Find("name")->string == "lat_seconds") hist = &entry;
  }
  ASSERT_NE(hist, nullptr);
  const JsonValue* counts = hist->Find("counts");
  ASSERT_NE(counts, nullptr);
  ASSERT_EQ(counts->array.size(), 4u);
  EXPECT_DOUBLE_EQ(counts->array[0].number, 0.0);
  EXPECT_DOUBLE_EQ(counts->array[1].number, 1.0);
  EXPECT_DOUBLE_EQ(counts->array[2].number, 0.0);
  EXPECT_DOUBLE_EQ(hist->Find("total")->number, 1.0);
  EXPECT_DOUBLE_EQ(hist->Find("sum")->number, 1.0);
}

TEST(ReportSchemaTest, KpisAndProfileSectionsFlowThrough) {
  obs::Sink sink;
  sink.Count("engine.probes", 100);
  obs::Profiler profiler;
  {
    obs::ProfileScope scope(&profiler, "scenario/x");
  }
  const JsonValue doc = MustParse(
      ReportString(sink, &profiler, {{"custom.kpi", 42.5}}));
  EXPECT_DOUBLE_EQ(doc.Find("kpis")->Find("custom.kpi")->number, 42.5);
  const JsonValue* sections = doc.Find("profile_sections");
  ASSERT_NE(sections, nullptr);
  ASSERT_EQ(sections->array.size(), 1u);
  EXPECT_EQ(sections->array[0].Find("name")->string, "scenario/x");
}

// ---------------------------------------------------------------------------
// GlobMatch + baseline rules
// ---------------------------------------------------------------------------

TEST(DiffRulesTest, GlobMatchHandlesLiteralPrefixSuffixAndStar) {
  EXPECT_TRUE(obs::GlobMatch("engine.probes", "engine.probes"));
  EXPECT_FALSE(obs::GlobMatch("engine.probes", "engine.probes_feasible"));
  EXPECT_TRUE(obs::GlobMatch("engine.*", "engine.probes"));
  EXPECT_FALSE(obs::GlobMatch("engine.*", "portfolio.runs"));
  EXPECT_TRUE(obs::GlobMatch("*_per_sec", "move_delta_ops_per_sec"));
  EXPECT_FALSE(obs::GlobMatch("*_per_sec", "mean_seconds"));
  EXPECT_TRUE(obs::GlobMatch("*", "anything"));
}

TEST(DiffRulesTest, ApplyBaselineRulesOverlaysEmbeddedDiffRules) {
  const JsonValue baseline = MustParse(R"({
    "schema_version": 1, "bench": "b",
    "diff_rules": {
      "timing_ratio": 2.5,
      "exact_counters": ["controller.*", "portfolio.runs"],
      "skip": ["flaky.*"]
    }
  })");
  obs::DiffOptions options;
  obs::ApplyBaselineRules(baseline, &options);
  EXPECT_DOUBLE_EQ(options.timing_ratio, 2.5);
  EXPECT_DOUBLE_EQ(options.kpi_ratio, 4.0);  // untouched default
  ASSERT_EQ(options.exact_counters.size(), 2u);
  EXPECT_EQ(options.exact_counters[0], "controller.*");
  ASSERT_EQ(options.skip.size(), 1u);
  EXPECT_EQ(options.skip[0], "flaky.*");
}

// ---------------------------------------------------------------------------
// DiffReports
// ---------------------------------------------------------------------------

std::string SinkReport(int64_t probes, double solve_seconds,
                       double rate_kpi) {
  obs::Sink sink;
  sink.Count("engine.probes", probes);
  sink.metrics().gauge("bench.total_seconds")->Set(solve_seconds);
  std::ostringstream os;
  obs::WriteBenchReport(os, "unit", {}, sink, nullptr,
                        {{"probe_rate_per_sec", rate_kpi},
                         {"latency_mean_seconds", solve_seconds}});
  return os.str();
}

TEST(DiffReportsTest, IdenticalReportsPass) {
  const JsonValue doc = MustParse(SinkReport(100, 2.0, 50.0));
  obs::DiffOptions options;
  options.timing_ratio = 1.5;
  const obs::DiffResult result = obs::DiffReports(doc, doc, options);
  EXPECT_TRUE(result.ok) << (result.failures.empty() ? ""
                                                     : result.failures[0]);
  EXPECT_TRUE(result.failures.empty());
}

TEST(DiffReportsTest, CounterMismatchFailsExactly) {
  const JsonValue baseline = MustParse(SinkReport(100, 2.0, 50.0));
  const JsonValue current = MustParse(SinkReport(101, 2.0, 50.0));
  const obs::DiffResult result =
      obs::DiffReports(baseline, current, obs::DiffOptions{});
  EXPECT_FALSE(result.ok);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_NE(result.failures[0].find("engine.probes"), std::string::npos);

  // A 52-bit plan digest that differs in its last bit reads differently.
  const obs::DiffResult digest = obs::DiffReports(
      MustParse(SinkReport(849922875454918, 2.0, 50.0)),
      MustParse(SinkReport(849922875454919, 2.0, 50.0)), obs::DiffOptions{});
  ASSERT_EQ(digest.failures.size(), 1u);
  EXPECT_NE(digest.failures[0].find(
                "baseline 849922875454918, current 849922875454919"),
            std::string::npos)
      << digest.failures[0];
}

TEST(DiffReportsTest, ExactCounterGlobsDemoteOtherCountersToNotes) {
  const JsonValue baseline = MustParse(SinkReport(100, 2.0, 50.0));
  const JsonValue current = MustParse(SinkReport(101, 2.0, 50.0));
  obs::DiffOptions options;
  options.exact_counters = {"portfolio.*"};  // engine.probes not gated
  const obs::DiffResult result = obs::DiffReports(baseline, current, options);
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(result.notes.empty());
}

TEST(DiffReportsTest, CountersMissingFromBaselineAreNotesEvenWhenGated) {
  // A baseline recorded before a counter existed (the evaluator's
  // floor_skips / memo_hits) must not fail a gate that exact-gates its
  // family: the new counter is reported as a note.
  const JsonValue baseline = MustParse(SinkReport(100, 2.0, 50.0));
  obs::Sink sink;
  sink.Count("engine.probes", 100);
  sink.Count("evaluator.floor_skips", 7);
  sink.Count("evaluator.memo_hits", 9);
  sink.metrics().gauge("bench.total_seconds")->Set(2.0);
  std::ostringstream os;
  obs::WriteBenchReport(os, "unit", {}, sink, nullptr,
                        {{"probe_rate_per_sec", 50.0},
                         {"latency_mean_seconds", 2.0}});
  const JsonValue current = MustParse(os.str());
  obs::DiffOptions options;
  options.exact_counters = {"engine.*", "evaluator.*"};
  const obs::DiffResult result = obs::DiffReports(baseline, current, options);
  EXPECT_TRUE(result.ok) << (result.failures.empty() ? ""
                                                     : result.failures[0]);
  int new_counter_notes = 0;
  for (const std::string& note : result.notes) {
    if (note.find("new counter evaluator.") != std::string::npos) {
      ++new_counter_notes;
    }
  }
  EXPECT_EQ(new_counter_notes, 2);
}

TEST(DiffReportsTest, InjectedDoubleTimingFailsRatioGate) {
  // The CI self-test scenario: same counters, 2x wall time must fail at
  // timing_ratio 1.5 on both the seconds-gauge and the latency KPI.
  const JsonValue baseline = MustParse(SinkReport(100, 2.0, 50.0));
  const JsonValue current = MustParse(SinkReport(100, 4.0, 50.0));
  obs::DiffOptions options;
  options.timing_ratio = 1.5;
  options.kpi_ratio = 1.5;
  const obs::DiffResult result = obs::DiffReports(baseline, current, options);
  EXPECT_FALSE(result.ok);
  EXPECT_GE(result.failures.size(), 2u);
  // Without timing checks (ratio 0) the same pair passes the gauge but the
  // latency KPI ceiling still applies.
  obs::DiffOptions lax;
  lax.timing_ratio = 0;
  lax.kpi_ratio = 1.5;
  const obs::DiffResult lax_result = obs::DiffReports(baseline, current, lax);
  EXPECT_FALSE(lax_result.ok);
  for (const std::string& failure : lax_result.failures) {
    EXPECT_EQ(failure.find("gauge"), std::string::npos) << failure;
  }
}

TEST(DiffReportsTest, RateKpiFloorCatchesThroughputCollapse) {
  const JsonValue baseline = MustParse(SinkReport(100, 2.0, 50.0));
  const JsonValue slower = MustParse(SinkReport(100, 2.0, 10.0));
  obs::DiffOptions options;
  options.kpi_ratio = 4.0;  // floor at 50/4 = 12.5 > 10
  const obs::DiffResult result = obs::DiffReports(baseline, slower, options);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_NE(result.failures[0].find("probe_rate_per_sec"), std::string::npos);
  // A faster run never fails the floor.
  const JsonValue faster = MustParse(SinkReport(100, 2.0, 500.0));
  EXPECT_TRUE(obs::DiffReports(baseline, faster, options).ok);
}

TEST(DiffReportsTest, SkipGlobsSilenceMetricsEntirely) {
  const JsonValue baseline = MustParse(SinkReport(100, 2.0, 50.0));
  const JsonValue current = MustParse(SinkReport(999, 2.0, 50.0));
  obs::DiffOptions options;
  options.skip = {"engine.*"};
  const obs::DiffResult result = obs::DiffReports(baseline, current, options);
  EXPECT_TRUE(result.ok) << (result.failures.empty() ? ""
                                                     : result.failures[0]);
}

TEST(DiffReportsTest, MismatchedSchemaOrBenchNameFails) {
  const JsonValue a = MustParse(SinkReport(100, 2.0, 50.0));
  JsonValue wrong_bench = a;
  for (auto& member : wrong_bench.object) {
    if (member.first == "bench") member.second.string = "other";
  }
  EXPECT_FALSE(obs::DiffReports(a, wrong_bench, obs::DiffOptions{}).ok);

  JsonValue wrong_version = a;
  for (auto& member : wrong_version.object) {
    if (member.first == "schema_version") member.second.number = 99;
  }
  EXPECT_FALSE(obs::DiffReports(wrong_version, a, obs::DiffOptions{}).ok);
}

}  // namespace
}  // namespace kairos
