// Tests for the observability substrate (src/obs/) and its acceptance
// contract: deterministic snapshots and merged traces, and — the hard
// requirement — identical solver/controller results with a sink attached
// vs detached, at every portfolio thread count.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "online/controller.h"
#include "online/telemetry.h"
#include "solve/portfolio.h"
#include "trace/scenario.h"
#include "util/units.h"

namespace kairos {
namespace {

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(RegistryTest, CounterSumsStripedWritesExactly) {
  obs::Registry registry;
  obs::Counter* c = registry.counter("writes");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Add(1);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(c->Value(), int64_t{kThreads} * kPerThread);
}

TEST(RegistryTest, HandlesAreStableAndSharedByName) {
  obs::Registry registry;
  obs::Counter* a = registry.counter("same");
  obs::Counter* b = registry.counter("same");
  EXPECT_EQ(a, b);
  a->Add(2);
  b->Add(3);
  EXPECT_EQ(a->Value(), 5);
}

TEST(RegistryTest, SnapshotListsSortedByName) {
  obs::Registry registry;
  registry.counter("zebra")->Add(1);
  registry.counter("alpha")->Add(2);
  registry.counter("mid")->Add(3);
  registry.gauge("g.z")->Set(1.5);
  registry.gauge("g.a")->Set(-2.0);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "mid");
  EXPECT_EQ(snap.counters[2].first, "zebra");
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].first, "g.a");
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, -2.0);
}

TEST(RegistryTest, HistogramBucketsAndOverflow) {
  obs::Registry registry;
  obs::Histogram* h = registry.histogram("lat", {0.1, 1.0, 10.0});
  h->Observe(0.05);   // bucket 0
  h->Observe(0.5);    // bucket 1
  h->Observe(0.5);    // bucket 1
  h->Observe(5.0);    // bucket 2
  h->Observe(100.0);  // overflow
  const std::vector<int64_t> counts = h->BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
  EXPECT_EQ(h->TotalCount(), 5);
  EXPECT_NEAR(h->Sum(), 106.05, 1e-9);
}

// ---------------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------------

TEST(TraceSinkTest, MergedTraceOrdersByTrackThenSeq) {
  obs::TraceSink trace;
  const uint32_t ta = trace.InternTrack("a");
  const uint32_t tb = trace.InternTrack("b");
  const uint32_t name = trace.InternName("e");
  // Interleave emissions across tracks; the merge must come back grouped by
  // track, each track in emission (seq) order.
  trace.Emit(ta, name, obs::EventKind::kPoint, 1);
  trace.Emit(tb, name, obs::EventKind::kPoint, 10);
  trace.Emit(ta, name, obs::EventKind::kPoint, 2);
  trace.Emit(tb, name, obs::EventKind::kPoint, 20);
  const std::vector<obs::TraceEvent> merged = trace.MergedTrace();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].track, ta);
  EXPECT_EQ(merged[0].i0, 1);
  EXPECT_EQ(merged[1].track, ta);
  EXPECT_EQ(merged[1].i0, 2);
  EXPECT_EQ(merged[2].track, tb);
  EXPECT_EQ(merged[2].i0, 10);
  EXPECT_EQ(merged[3].track, tb);
  EXPECT_EQ(merged[3].i0, 20);
}

TEST(TraceSinkTest, PerThreadRingsMergeWithoutLoss) {
  obs::TraceSink trace;
  const uint32_t name = trace.InternName("e");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  // One track per thread (the substrate's single-writer-per-track
  // contract), each emitting a deterministic sequence.
  std::vector<uint32_t> tracks;
  for (int t = 0; t < kThreads; ++t) {
    tracks.push_back(trace.InternTrack("thread/" + std::to_string(t)));
  }
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&trace, &tracks, name, t] {
      for (int i = 0; i < kPerThread; ++i) {
        trace.Emit(tracks[t], name, obs::EventKind::kPoint, i);
      }
    });
  }
  for (auto& th : pool) th.join();
  const std::vector<obs::TraceEvent> merged = trace.MergedTrace();
  ASSERT_EQ(merged.size(), size_t{kThreads} * kPerThread);
  EXPECT_EQ(trace.dropped_events(), 0);
  // Within each track, i0 must come back 0..kPerThread-1 in order.
  size_t idx = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i, ++idx) {
      ASSERT_EQ(merged[idx].track, tracks[t]);
      ASSERT_EQ(merged[idx].i0, i);
    }
  }
}

TEST(TraceSinkTest, TracksInternedWhileOtherThreadsEmit) {
  // Each thread interns its own tracks one at a time and emits on each
  // right away, so interning (which crosses several seq-counter chunks at
  // this track count) runs concurrently with other threads' Emit calls.
  obs::TraceSink trace;
  const uint32_t name = trace.InternName("e");
  constexpr int kThreads = 4;
  constexpr int kTracksPerThread = 100;
  constexpr int kEventsPerTrack = 3;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&trace, name, t] {
      for (int k = 0; k < kTracksPerThread; ++k) {
        const uint32_t track = trace.InternTrack(
            "thread/" + std::to_string(t) + "/" + std::to_string(k));
        for (int i = 0; i < kEventsPerTrack; ++i) {
          trace.Emit(track, name, obs::EventKind::kPoint, i);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  const std::vector<obs::TraceEvent> merged = trace.MergedTrace();
  ASSERT_EQ(merged.size(), size_t{kThreads} * kTracksPerThread * kEventsPerTrack);
  // Every track's events carry seqs 0, 1, 2 in emission order.
  for (size_t idx = 0; idx < merged.size(); ++idx) {
    const int i = static_cast<int>(idx % kEventsPerTrack);
    ASSERT_EQ(merged[idx].track, idx / kEventsPerTrack);
    ASSERT_EQ(merged[idx].seq, static_cast<uint64_t>(i));
    ASSERT_EQ(merged[idx].i0, i);
  }
}

TEST(TraceSinkTest, BoundedRingDropsNewestAndCounts) {
  obs::TraceSink trace(/*ring_capacity=*/8);
  const uint32_t track = trace.InternTrack("t");
  const uint32_t name = trace.InternName("e");
  for (int i = 0; i < 20; ++i) {
    trace.Emit(track, name, obs::EventKind::kPoint, i);
  }
  const std::vector<obs::TraceEvent> merged = trace.MergedTrace();
  EXPECT_EQ(merged.size(), 8u);
  EXPECT_EQ(trace.dropped_events(), 12);
  // The stored prefix keeps contiguous seq numbers (drops never burn one).
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].i0, static_cast<int64_t>(i));
  }
}

// ---------------------------------------------------------------------------
// Sink on/off identity
// ---------------------------------------------------------------------------

monitor::WorkloadProfile MakeProfile(const std::string& name, double cpu_cores,
                                     double ram_gb) {
  monitor::WorkloadProfile p;
  p.name = name;
  p.cpu_cores = util::TimeSeries::Constant(300, 6, cpu_cores);
  p.ram_bytes =
      util::TimeSeries::Constant(300, 6, ram_gb * static_cast<double>(util::kGiB));
  p.update_rows_per_sec = util::TimeSeries::Constant(300, 6, 0.0);
  p.working_set_bytes = ram_gb * 0.8 * static_cast<double>(util::kGiB);
  return p;
}

core::ConsolidationProblem MixedProblem() {
  core::ConsolidationProblem prob;
  for (int i = 0; i < 4; ++i) {
    prob.workloads.push_back(MakeProfile("big" + std::to_string(i), 3.0, 30.0));
  }
  for (int i = 0; i < 8; ++i) {
    prob.workloads.push_back(MakeProfile("small" + std::to_string(i), 0.3, 6.0));
  }
  return prob;
}

solve::SolveBudget SmallBudget() {
  solve::SolveBudget budget;
  budget.max_iterations = 4000;
  budget.direct_evaluations = 400;
  budget.probe_direct_evaluations = 150;
  budget.local_search_max_sweeps = 20;
  return budget;
}

TEST(SinkIdentityTest, PortfolioPlansIdenticalWithSinkOnVsOffAtEveryThreadCount) {
  const core::ConsolidationProblem prob = MixedProblem();
  const auto specs = solve::PortfolioRunner::DefaultSpecs(17);

  solve::PortfolioOptions detached_options;
  detached_options.threads = 1;
  detached_options.budget = SmallBudget();
  const solve::PortfolioResult baseline =
      solve::PortfolioRunner(detached_options).Run(prob, specs);

  for (int threads : {1, 2, 4}) {
    obs::Sink sink;
    solve::PortfolioOptions options;
    options.threads = threads;
    options.budget = SmallBudget();
    options.budget.sink = &sink;
    const solve::PortfolioResult observed =
        solve::PortfolioRunner(options).Run(prob, specs);

    // The acceptance contract: observing the solve must not change it.
    EXPECT_EQ(observed.winner, baseline.winner) << threads;
    EXPECT_EQ(observed.best.objective, baseline.best.objective) << threads;
    EXPECT_EQ(observed.best.assignment.server_of_slot,
              baseline.best.assignment.server_of_slot)
        << threads;
    ASSERT_EQ(observed.members.size(), baseline.members.size());
    for (size_t i = 0; i < observed.members.size(); ++i) {
      EXPECT_EQ(observed.members[i].plan.objective,
                baseline.members[i].plan.objective)
          << "member " << i << " at " << threads << " threads";
      EXPECT_EQ(observed.members[i].plan.assignment.server_of_slot,
                baseline.members[i].plan.assignment.server_of_slot)
          << "member " << i << " at " << threads << " threads";
    }
  }
}

TEST(SinkIdentityTest, CountersAndCurvesStableAcrossThreadCounts) {
  const core::ConsolidationProblem prob = MixedProblem();
  const auto specs = solve::PortfolioRunner::DefaultSpecs(17);

  std::vector<obs::MetricsSnapshot> snapshots;
  std::vector<std::map<std::string, std::string>> curve_signatures;
  for (int threads : {1, 2, 4}) {
    obs::Sink sink;
    solve::PortfolioOptions options;
    options.threads = threads;
    options.budget = SmallBudget();
    options.budget.sink = &sink;
    solve::PortfolioRunner(options).Run(prob, specs);
    snapshots.push_back(sink.metrics().Snapshot());

    // Per-track signature of the deterministic event payloads: name/kind/
    // seq and the data fields, wall-clock excluded. Keyed by track name:
    // interned track ids follow which portfolio thread registers first.
    const std::vector<obs::TraceEvent> merged = sink.trace().MergedTrace();
    const std::vector<std::string> tracks = sink.trace().TrackNames();
    const std::vector<std::string> names = sink.trace().EventNames();
    std::map<std::string, std::string> signature;
    for (const obs::TraceEvent& e : merged) {
      signature[tracks[e.track]] +=
          names[e.name] + "|" + std::to_string(static_cast<int>(e.kind)) + "|" +
          std::to_string(e.seq) + "|" + std::to_string(e.i0) + "|" +
          std::to_string(e.i1) + "|" + std::to_string(e.d0) + ";";
    }
    curve_signatures.push_back(signature);
  }

  for (size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_EQ(snapshots[i].counters, snapshots[0].counters) << "threads run " << i;
    EXPECT_EQ(curve_signatures[i], curve_signatures[0]) << "threads run " << i;
  }
}

TEST(SinkIdentityTest, EveryPortfolioMemberExportsAnIncumbentCurve) {
  const core::ConsolidationProblem prob = MixedProblem();
  const auto specs = solve::PortfolioRunner::DefaultSpecs(17);
  obs::Sink sink;
  solve::PortfolioOptions options;
  options.threads = 2;
  options.budget = SmallBudget();
  options.budget.sink = &sink;
  solve::PortfolioRunner(options).Run(prob, specs);

  const std::vector<obs::TraceEvent> merged = sink.trace().MergedTrace();
  const std::vector<std::string> tracks = sink.trace().TrackNames();
  const std::vector<std::string> names = sink.trace().EventNames();
  std::set<std::string> curve_prefixes;
  for (const obs::TraceEvent& e : merged) {
    if (names[e.name] != "incumbent") continue;
    const std::string& track = tracks[e.track];
    curve_prefixes.insert(track.substr(0, track.find('/')));
  }
  for (const char* member : {"greedy", "engine", "anneal", "tabu"}) {
    EXPECT_TRUE(curve_prefixes.count(member)) << member;
  }
}

TEST(SinkIdentityTest, ControllerHistoryByteIdenticalWithSinkOnVsOff) {
  trace::ScenarioConfig scenario_config;
  scenario_config.steps = 48;
  scenario_config.seed = 11;
  const trace::ScenarioTelemetry scenario =
      trace::MakeScenario(trace::ScenarioKind::kDiurnal, scenario_config);

  online::ControllerConfig config;
  config.base.workloads = scenario.profiles;
  config.num_servers = 4;
  config.seed = 11;

  online::ConsolidationController plain(config);
  online::ReplayFeed plain_feed = online::ReplayFeed::FromProfiles(scenario.profiles);
  plain.RunToEnd(&plain_feed);

  obs::Sink sink;
  config.sink = &sink;
  online::ConsolidationController observed(config);
  online::ReplayFeed observed_feed =
      online::ReplayFeed::FromProfiles(scenario.profiles);
  observed.RunToEnd(&observed_feed);

  EXPECT_EQ(observed.RenderHistory(), plain.RenderHistory());
  ASSERT_FALSE(observed.history().empty());

  // The sink recorded the stage timeline: a detect/resolve/plan/ledger
  // tuple per adopted plan plus a detection-to-migration latency.
  const std::vector<obs::TraceEvent> merged = sink.trace().MergedTrace();
  const std::vector<std::string> names = sink.trace().EventNames();
  int detects = 0, resolves = 0, plans = 0, ledgers = 0, latencies = 0;
  for (const obs::TraceEvent& e : merged) {
    const std::string& n = names[e.name];
    detects += n == "detect";
    resolves += n == "resolve";
    plans += n == "plan";
    ledgers += n == "ledger";
    latencies += n == "detect_to_migrate";
  }
  const int adopted = static_cast<int>(observed.history().size());
  EXPECT_GE(detects, adopted);
  EXPECT_EQ(resolves, adopted);
  EXPECT_EQ(plans, adopted);
  EXPECT_EQ(ledgers, adopted);
  EXPECT_EQ(latencies, adopted);
  EXPECT_EQ(
      sink.metrics().counter("controller.resolves")->Value(), adopted);
}

// ---------------------------------------------------------------------------
// Engine probes + export
// ---------------------------------------------------------------------------

TEST(SinkExportTest, EngineRecordsProbesAndJsonCarriesRequiredKeys) {
  const core::ConsolidationProblem prob = MixedProblem();
  obs::Sink sink;
  core::EngineOptions options;
  options.direct_evaluations = 400;
  options.probe_direct_evaluations = 150;
  options.local_search_max_sweeps = 20;
  options.sink = &sink;
  const core::ConsolidationPlan plan =
      core::ConsolidationEngine(prob, options).Solve();

  EXPECT_GT(plan.probe_attempts, 0);
  EXPECT_EQ(sink.metrics().counter("engine.probes")->Value(),
            plan.probe_attempts);
  // Render()'s probe-rate line rides on the recorded attempts.
  EXPECT_NE(plan.Render().find("probes " + std::to_string(plan.probe_attempts)),
            std::string::npos);

  std::ostringstream os;
  obs::ExportJsonFields(sink, os);
  const std::string json = os.str();
  for (const char* key :
       {"\"meta\"", "\"counters\"", "\"gauges\"", "\"histograms\"",
        "\"probes\"", "\"incumbent_curves\"", "\"controller\"",
        "\"detection_to_migration_seconds\"", "\"events\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // The probes view is populated (one entry per ProbeK/ProbeServers call).
  EXPECT_NE(json.find("\"type\": \"probe\""), std::string::npos);
  // The engine's incumbent curve came through with >= 1 point.
  EXPECT_NE(json.find("\"engine/1\": [{\"iteration\""), std::string::npos);
}

}  // namespace
}  // namespace kairos
