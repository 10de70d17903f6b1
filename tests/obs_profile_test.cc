// Tests for the span profiler (obs/profile.h): explicit section timing via
// Profiler, span-derived profiles via BuildSpanProfile, and — the
// acceptance contract — controller transcripts byte-identical with a
// profiler attached vs detached at every portfolio thread count.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/profile.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "online/controller.h"
#include "online/telemetry.h"
#include "trace/scenario.h"

namespace kairos {
namespace {

// ---------------------------------------------------------------------------
// Profiler: explicit section stack
// ---------------------------------------------------------------------------

TEST(ProfilerTest, NestedSectionsSplitSelfFromTotal) {
  obs::Profiler profiler;
  const uint32_t outer = profiler.InternSection("outer");
  const uint32_t inner = profiler.InternSection("inner");

  profiler.Enter(outer);
  profiler.Enter(inner);
  profiler.Exit(inner);
  profiler.Exit(outer);

  const std::vector<obs::ProfileEntry> sections = profiler.SectionProfile();
  ASSERT_EQ(sections.size(), 2u);
  // Sorted by name: inner before outer.
  EXPECT_EQ(sections[0].name, "inner");
  EXPECT_EQ(sections[0].count, 1);
  EXPECT_EQ(sections[1].name, "outer");
  EXPECT_EQ(sections[1].count, 1);
  // The child's total is carved out of the parent's self time.
  EXPECT_GE(sections[1].total_seconds, sections[0].total_seconds);
  EXPECT_LE(sections[1].self_seconds,
            sections[1].total_seconds - sections[0].total_seconds + 1e-6);
  // Leaf sections have self == total.
  EXPECT_DOUBLE_EQ(sections[0].self_seconds, sections[0].total_seconds);
}

TEST(ProfilerTest, ProfileScopeIsRaiiAndNullSafe) {
  obs::Profiler profiler;
  {
    obs::ProfileScope outer(&profiler, "outer");
    obs::ProfileScope inner(&profiler, "inner");
  }
  {
    // Null profiler: every operation is a no-op, not a crash.
    obs::ProfileScope noop(nullptr, "ignored");
  }
  const std::vector<obs::ProfileEntry> sections = profiler.SectionProfile();
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].name, "inner");
  EXPECT_EQ(sections[1].name, "outer");
}

TEST(ProfilerTest, MergesTalliesAcrossThreads) {
  obs::Profiler profiler;
  const uint32_t section = profiler.InternSection("work");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&profiler, section] {
      for (int i = 0; i < kPerThread; ++i) {
        profiler.Enter(section);
        profiler.Exit(section);
      }
    });
  }
  for (auto& th : pool) th.join();
  const std::vector<obs::ProfileEntry> sections = profiler.SectionProfile();
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].count, int64_t{kThreads} * kPerThread);
}

TEST(ProfilerTest, MismatchedExitIsIgnored) {
  obs::Profiler profiler;
  const uint32_t a = profiler.InternSection("a");
  const uint32_t b = profiler.InternSection("b");
  profiler.Enter(a);
  profiler.Exit(b);  // not the top of the stack: ignored
  profiler.Exit(a);
  const std::vector<obs::ProfileEntry> sections = profiler.SectionProfile();
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].name, "a");
  EXPECT_EQ(sections[0].count, 1);
}

// ---------------------------------------------------------------------------
// BuildSpanProfile: span-derived self/total
// ---------------------------------------------------------------------------

TEST(SpanProfileTest, NestedSpansAggregateSelfAndTotal) {
  obs::TraceSink trace;
  const uint32_t track = trace.InternTrack("t");
  const uint32_t outer = trace.InternName("outer");
  const uint32_t inner = trace.InternName("inner");
  // outer [0, 10s] containing inner [1, 4s]: emitted as kBegin/kEnd pairs
  // with d1 = duration on the kEnd.
  trace.Emit(track, outer, obs::EventKind::kBegin, 0);
  trace.Emit(track, inner, obs::EventKind::kBegin, 0);
  trace.Emit(track, inner, obs::EventKind::kEnd, 0, 0, 0.0, 4.0);
  trace.Emit(track, outer, obs::EventKind::kEnd, 0, 0, 0.0, 10.0);

  const std::vector<obs::ProfileEntry> profile = obs::BuildSpanProfile(trace);
  ASSERT_EQ(profile.size(), 2u);
  // Sorted by (track, name): "inner" interned after "outer" but names sort
  // lexicographically within the track.
  const obs::ProfileEntry* inner_entry = nullptr;
  const obs::ProfileEntry* outer_entry = nullptr;
  for (const auto& e : profile) {
    if (e.name == "inner") inner_entry = &e;
    if (e.name == "outer") outer_entry = &e;
  }
  ASSERT_NE(inner_entry, nullptr);
  ASSERT_NE(outer_entry, nullptr);
  EXPECT_EQ(inner_entry->count, 1);
  EXPECT_DOUBLE_EQ(inner_entry->total_seconds, 4.0);
  EXPECT_DOUBLE_EQ(inner_entry->self_seconds, 4.0);
  EXPECT_EQ(outer_entry->count, 1);
  EXPECT_DOUBLE_EQ(outer_entry->total_seconds, 10.0);
  EXPECT_DOUBLE_EQ(outer_entry->self_seconds, 6.0);
}

TEST(SpanProfileTest, UnmatchedSpansAreDroppedNotCrashed) {
  obs::TraceSink trace;
  const uint32_t track = trace.InternTrack("t");
  const uint32_t open_only = trace.InternName("open-only");
  const uint32_t orphan = trace.InternName("orphan");
  const uint32_t good = trace.InternName("good");
  trace.Emit(track, open_only, obs::EventKind::kBegin, 0);  // never closed
  trace.Emit(track, orphan, obs::EventKind::kEnd, 0, 0, 0.0, 3.0);  // no open
  trace.Emit(track, good, obs::EventKind::kBegin, 0);
  trace.Emit(track, good, obs::EventKind::kEnd, 0, 0, 0.0, 2.0);

  const std::vector<obs::ProfileEntry> profile = obs::BuildSpanProfile(trace);
  ASSERT_EQ(profile.size(), 1u);
  EXPECT_EQ(profile[0].name, "good");
  EXPECT_DOUBLE_EQ(profile[0].total_seconds, 2.0);
}

// ---------------------------------------------------------------------------
// Determinism: profiler attached vs detached
// ---------------------------------------------------------------------------

TEST(ProfilerIdentityTest, ControllerTranscriptByteIdenticalAtEveryThreadCount) {
  trace::ScenarioConfig scenario_config;
  scenario_config.steps = 48;
  scenario_config.seed = 11;
  const trace::ScenarioTelemetry scenario =
      trace::MakeScenario(trace::ScenarioKind::kDiurnal, scenario_config);

  online::ControllerConfig config;
  config.base.workloads = scenario.profiles;
  config.num_servers = 4;
  config.seed = 11;

  for (int threads : {1, 2, 4}) {
    config.threads = threads;

    config.sink = nullptr;
    online::ConsolidationController plain(config);
    online::ReplayFeed plain_feed =
        online::ReplayFeed::FromProfiles(scenario.profiles);
    plain.RunToEnd(&plain_feed);

    // Attached run: sink + profiler sections wrapped around the drain, the
    // exact instrumentation shape BenchReporter uses.
    obs::Sink sink;
    obs::Profiler profiler;
    config.sink = &sink;
    online::ConsolidationController observed(config);
    online::ReplayFeed observed_feed =
        online::ReplayFeed::FromProfiles(scenario.profiles);
    observed_feed.AttachSink(&sink);
    {
      obs::ProfileScope scope(&profiler, "scenario/diurnal");
      observed.RunToEnd(&observed_feed);
    }

    EXPECT_EQ(observed.RenderHistory(), plain.RenderHistory())
        << "threads=" << threads;
    // The profiler actually recorded the drain.
    const std::vector<obs::ProfileEntry> sections = profiler.SectionProfile();
    ASSERT_EQ(sections.size(), 1u);
    EXPECT_EQ(sections[0].count, 1);
    EXPECT_GT(sections[0].total_seconds, 0.0);
    // The ingestion counters flowed through feed and controller alike.
    EXPECT_EQ(sink.metrics().counter("telemetry.steps_emitted")->Value(), 48);
    EXPECT_EQ(sink.metrics().counter("controller.steps_ingested")->Value(), 48);
  }
}

}  // namespace
}  // namespace kairos
