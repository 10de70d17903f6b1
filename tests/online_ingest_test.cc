// Striped parallel ingestion: the StripeMap layout, bit-identity of the SoA
// estimator banks against the scalar reference estimators, thread-count
// independence of the IngestPlane, the Stats fingerprint against a
// sort-based reference, the sharded drift scan, and byte-identical
// controller transcripts at 1/2/4/8 ingest threads.
#include "online/ingest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "monitor/profile.h"
#include "obs/sink.h"
#include "online/controller.h"
#include "online/drift.h"
#include "online/estimators.h"
#include "online/streaming_profile.h"
#include "online/telemetry.h"
#include "tests/oracle/scalar_estimators.h"
#include "tests/sorted_percentile.h"
#include "trace/scenario.h"
#include "util/rng.h"
#include "util/units.h"

namespace kairos::online {
namespace {

// ---------------------------------------------------------------------------
// StripeMap
// ---------------------------------------------------------------------------

TEST(StripeMapTest, ContiguousDisjointRangesCoverEveryStream) {
  const StripeMap map(37, 5);
  EXPECT_EQ(map.num_streams(), 37);
  EXPECT_EQ(map.num_stripes(), 5);
  EXPECT_EQ(map.begin(0), 0);
  EXPECT_EQ(map.end(map.num_stripes() - 1), 37);
  for (int s = 0; s + 1 < map.num_stripes(); ++s) {
    EXPECT_EQ(map.end(s), map.begin(s + 1));  // contiguous, no gap
  }
  // Even split: sizes differ by at most one, fat stripes first.
  for (int s = 0; s < map.num_stripes(); ++s) {
    EXPECT_GE(map.size(s), 37 / 5);
    EXPECT_LE(map.size(s), 37 / 5 + 1);
    if (s > 0) {
      EXPECT_LE(map.size(s), map.size(s - 1));
    }
  }
}

TEST(StripeMapTest, StripeCountClampsToStreams) {
  EXPECT_EQ(StripeMap(3, 16).num_stripes(), 3);
  EXPECT_EQ(StripeMap(1, 0).num_stripes(), 1);
}

TEST(StripeMapTest, AutoStripesDependsOnlyOnStreamCount) {
  EXPECT_EQ(StripeMap::AutoStripes(1), 1);
  EXPECT_EQ(StripeMap::AutoStripes(2048), 1);
  EXPECT_EQ(StripeMap::AutoStripes(2049), 2);
  EXPECT_EQ(StripeMap::AutoStripes(1 << 20), 256);  // clamp
  // StripeMap(n, 0) adopts the auto count.
  EXPECT_EQ(StripeMap(5000, 0).num_stripes(), StripeMap::AutoStripes(5000));
}

// ---------------------------------------------------------------------------
// SoA banks vs scalar estimators: bit-identical state evolution
// ---------------------------------------------------------------------------

TEST(EstimatorBankTest, RollingWindowBankMatchesScalarBitExact) {
  constexpr int kStreams = 3;
  constexpr size_t kCapacity = 5;
  std::vector<oracle::RollingWindow> scalar(
      kStreams, oracle::RollingWindow(kCapacity, 300.0));
  RollingWindowBank bank(kStreams, kCapacity, 300.0);

  util::Rng rng(17);
  for (int t = 0; t < 23; ++t) {
    for (int w = 0; w < kStreams; ++w) {
      const double x = rng.Exponential(2.0);
      scalar[w].Push(x);
      bank.Push(w, x);
    }
    bank.CommitStep();
    for (int w = 0; w < kStreams; ++w) {
      // EXPECT_EQ, not NEAR: the bank must export the identical samples in
      // the identical order, at every prefix including the ring wrap.
      const util::TimeSeries a = bank.ToSeries(w);
      const util::TimeSeries b = scalar[w].ToSeries();
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.at(i), b.at(i));
      EXPECT_EQ(a.Mean(), b.Mean()) << "t=" << t << " w=" << w;
      EXPECT_EQ(a.Max(), b.Max()) << "t=" << t << " w=" << w;
    }
  }
  EXPECT_TRUE(bank.full());
}

TEST(EstimatorBankTest, DecayingMaxBankMatchesScalarBitExact) {
  constexpr int kStreams = 2;
  std::vector<oracle::DecayingMax> scalar(kStreams, oracle::DecayingMax(0.995));
  DecayingMaxBank bank(kStreams, 0.995);
  util::Rng rng(31);
  for (int t = 0; t < 200; ++t) {
    for (int w = 0; w < kStreams; ++w) {
      const double x = rng.Exponential(6.0 * util::kGiB);
      scalar[w].Push(x);
      bank.Push(w, x);
      EXPECT_EQ(bank.value(w), scalar[w].value());
    }
  }
}

// ---------------------------------------------------------------------------
// StreamingProfileBuilder: batch protocol == serial Ingest
// ---------------------------------------------------------------------------

std::vector<TelemetrySample> RandomStep(util::Rng* rng, int streams) {
  std::vector<TelemetrySample> step(streams);
  for (auto& s : step) {
    s.cpu_cores = rng->Exponential(0.8);
    s.ram_bytes = rng->Uniform(1.0, 8.0) * static_cast<double>(util::kGiB);
    s.update_rows_per_sec = rng->Exponential(50.0);
    s.working_set_bytes = rng->Uniform(1.0, 6.0) * static_cast<double>(util::kGiB);
  }
  return step;
}

void ExpectSameState(StreamingProfileBuilder& a, StreamingProfileBuilder& b) {
  ASSERT_EQ(a.num_workloads(), b.num_workloads());
  EXPECT_EQ(a.samples_seen(), b.samples_seen());
  for (int w = 0; w < a.num_workloads(); ++w) {
    const monitor::WorkloadProfile pa = a.Profile(w);
    const monitor::WorkloadProfile pb = b.Profile(w);
    ASSERT_EQ(pa.cpu_cores.size(), pb.cpu_cores.size());
    for (size_t i = 0; i < pa.cpu_cores.size(); ++i) {
      EXPECT_EQ(pa.cpu_cores.at(i), pb.cpu_cores.at(i));
      EXPECT_EQ(pa.ram_bytes.at(i), pb.ram_bytes.at(i));
      EXPECT_EQ(pa.update_rows_per_sec.at(i), pb.update_rows_per_sec.at(i));
    }
    EXPECT_EQ(pa.working_set_bytes, pb.working_set_bytes);
    const monitor::ProfileStats sa = a.Stats(w);
    const monitor::ProfileStats sb = b.Stats(w);
    EXPECT_EQ(sa.p95_cpu_cores, sb.p95_cpu_cores);
    EXPECT_EQ(sa.p95_ram_bytes, sb.p95_ram_bytes);
    EXPECT_EQ(sa.mean_cpu_cores, sb.mean_cpu_cores);
  }
}

TEST(IngestPlaneTest, SplitBatchesMatchSerialIngest) {
  constexpr int kStreams = 11;
  StreamingProfileBuilder serial(kStreams, 7, 300.0);
  StreamingProfileBuilder batched(kStreams, 7, 300.0);

  util::Rng rng(41);
  for (int t = 0; t < 30; ++t) {
    const std::vector<TelemetrySample> step = RandomStep(&rng, kStreams);
    serial.Ingest(step);
    // Arbitrary uneven split, out of order: [7, 11) then [0, 3) then [3, 7).
    batched.IngestBatch(step.data(), 7, kStreams);
    batched.IngestBatch(step.data(), 0, 3);
    batched.IngestBatch(step.data(), 3, 7);
    batched.CommitStep();
  }
  ExpectSameState(serial, batched);
}

TEST(IngestPlaneTest, StateIdenticalAcrossThreadCounts) {
  constexpr int kStreams = 37;  // odd: uneven stripes
  constexpr int kSteps = 40;
  util::Rng rng(47);
  std::vector<std::vector<TelemetrySample>> steps;
  for (int t = 0; t < kSteps; ++t) steps.push_back(RandomStep(&rng, kStreams));

  StreamingProfileBuilder reference(kStreams, 12, 300.0);
  for (const auto& step : steps) reference.Ingest(step);

  for (int threads : {1, 2, 4, 8}) {
    StreamingProfileBuilder builder(kStreams, 12, 300.0);
    IngestOptions options;
    options.threads = threads;
    options.stripes = 5;
    IngestPlane plane(&builder, options);
    for (const auto& step : steps) plane.IngestStep(step);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameState(reference, builder);
  }
}

TEST(IngestPlaneTest, CountsStepsAndStripeBatches) {
  StreamingProfileBuilder builder(10, 4, 300.0);
  IngestOptions options;
  options.threads = 2;
  options.stripes = 3;
  IngestPlane plane(&builder, options);
  obs::Sink sink;
  plane.AttachSink(&sink);

  util::Rng rng(3);
  for (int t = 0; t < 6; ++t) EXPECT_TRUE(plane.IngestStep(RandomStep(&rng, 10)));
  // A short step is refused before any stripe reads it.
  EXPECT_FALSE(plane.IngestStep(RandomStep(&rng, 9)));

  EXPECT_EQ(builder.samples_seen(), 6u);
  EXPECT_EQ(sink.metrics().counter("ingest.steps")->Value(), 6);
  EXPECT_EQ(sink.metrics().counter("ingest.stripe_batches")->Value(), 18);
  EXPECT_EQ(sink.metrics().gauge("ingest.stripes")->Value(), 3.0);
  EXPECT_EQ(sink.metrics().gauge("ingest.threads")->Value(), 2.0);
}

// ---------------------------------------------------------------------------
// Stats fingerprint: byte-identical to the sort-based fingerprint of
// Profile(w)
// ---------------------------------------------------------------------------

/// The fingerprint kernel over plain-array views of a profile's series.
monitor::ProfileStats SummarizeSeries(const monitor::WorkloadProfile& p) {
  const auto view = [](const util::TimeSeries& series) {
    return monitor::WindowView{series.values().data(), 1, 0, series.size()};
  };
  return monitor::SummarizeWindow(view(p.cpu_cores), view(p.ram_bytes),
                                  view(p.update_rows_per_sec),
                                  p.working_set_bytes);
}

/// The fingerprint with every p95 taken by copy-and-sort over the exported
/// rolling profile.
monitor::ProfileStats SortedSummarize(const monitor::WorkloadProfile& p) {
  monitor::ProfileStats s;
  s.mean_cpu_cores = p.cpu_cores.Mean();
  s.p95_cpu_cores = oracle::SortedPercentile(p.cpu_cores.values(), 95.0);
  s.peak_cpu_cores = p.cpu_cores.Max();
  s.mean_ram_bytes = p.ram_bytes.Mean();
  s.p95_ram_bytes = oracle::SortedPercentile(p.ram_bytes.values(), 95.0);
  s.peak_ram_bytes = p.ram_bytes.Max();
  s.p95_update_rows_per_sec =
      oracle::SortedPercentile(p.update_rows_per_sec.values(), 95.0);
  s.working_set_bytes = p.working_set_bytes;
  return s;
}

bool SameBytes(const monitor::ProfileStats& a, const monitor::ProfileStats& b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// Streams cycle through four kinds: continuous, tied small integers,
/// constant, and integer-valued over a wide range.
std::vector<TelemetrySample> MixedStep(util::Rng* rng, int streams) {
  const double gib = static_cast<double>(util::kGiB);
  std::vector<TelemetrySample> step(streams);
  for (int w = 0; w < streams; ++w) {
    TelemetrySample& s = step[w];
    switch (w % 4) {
      case 0:
        s.cpu_cores = rng->Exponential(0.8);
        s.ram_bytes = rng->Uniform(1.0, 8.0) * gib;
        s.update_rows_per_sec = rng->Exponential(50.0);
        break;
      case 1:
        s.cpu_cores = static_cast<double>(rng->UniformInt(0, 3));
        s.ram_bytes = static_cast<double>(rng->UniformInt(1, 2)) * gib;
        s.update_rows_per_sec = static_cast<double>(rng->UniformInt(0, 5));
        break;
      case 2:
        s.cpu_cores = 1.5;
        s.ram_bytes = 4.0 * gib;
        s.update_rows_per_sec = 10.0;
        break;
      default:
        s.cpu_cores = static_cast<double>(rng->UniformInt(0, 1000));
        s.ram_bytes = static_cast<double>(rng->UniformInt(1, 64)) * gib;
        s.update_rows_per_sec = static_cast<double>(rng->UniformInt(0, 500));
        break;
    }
    s.working_set_bytes = rng->Uniform(1.0, 6.0) * gib;
  }
  return step;
}

TEST(StreamingStatsTest, ByteIdenticalToSortedSummarizeWhileFillingAndWrapped) {
  constexpr int kStreams = 8;
  // p95 tails: 2 at W = 12 and 20, 8 at W = 141 (the last kept by
  // UpperTail), 9 at W = 142 (the first gathered for nth_element), 16 at
  // W = 288.
  for (size_t window : {1, 2, 3, 5, 12, 20, 141, 142, 288}) {
    SCOPED_TRACE("W=" + std::to_string(window));
    StreamingProfileBuilder builder(kStreams, window, 300.0);
    ASSERT_TRUE(SameBytes(builder.Stats(0), SortedSummarize(builder.Profile(0))));
    util::Rng rng(53 + window);
    // size < W for the first W - 1 steps, then the ring wraps twice.
    const size_t steps = 2 * window + 3;
    for (size_t t = 0; t < steps; ++t) {
      builder.Ingest(MixedStep(&rng, kStreams));
      for (int w = 0; w < kStreams; ++w) {
        const monitor::WorkloadProfile profile = builder.Profile(w);
        const monitor::ProfileStats want = SortedSummarize(profile);
        ASSERT_TRUE(SameBytes(builder.Stats(w), want)) << "t=" << t << " w=" << w;
        ASSERT_TRUE(SameBytes(SummarizeSeries(profile), want))
            << "t=" << t << " w=" << w;
      }
    }
  }
}

TEST(StreamingStatsTest, SummarizeOfUnequalSeriesMatchesSortedSummarize) {
  // Series of unequal lengths do not share one pass; each is gathered on
  // its own and must still equal the sort.
  util::Rng rng(61);
  const auto series = [&](size_t n) {
    std::vector<double> values(n);
    for (double& x : values) x = rng.Exponential(2.0);
    return util::TimeSeries(300.0, std::move(values));
  };
  const std::vector<std::array<size_t, 3>> shapes = {
      {12, 20, 0}, {1, 141, 142}, {288, 12, 12}};
  for (const std::array<size_t, 3>& sizes : shapes) {
    monitor::WorkloadProfile profile;
    profile.cpu_cores = series(sizes[0]);
    profile.ram_bytes = series(sizes[1]);
    profile.update_rows_per_sec = series(sizes[2]);
    EXPECT_TRUE(SameBytes(SummarizeSeries(profile), SortedSummarize(profile)))
        << sizes[0] << "/" << sizes[1] << "/" << sizes[2];
  }
}

TEST(StreamingStatsTest, StatsFromConcurrentStripesMatchSortedSummarize) {
  // Stats is const and runs on every ingest worker at once.
  constexpr int kStreams = 203;
  StreamingProfileBuilder builder(kStreams, 12, 300.0);
  IngestOptions options;
  options.threads = 4;
  options.stripes = 7;
  IngestPlane plane(&builder, options);
  util::Rng rng(59);
  std::vector<monitor::ProfileStats> stats(kStreams);
  for (int t = 0; t < 30; ++t) {
    plane.IngestStep(MixedStep(&rng, kStreams));
    plane.ForEachStripe([&](int, int begin, int end) {
      for (int w = begin; w < end; ++w) stats[w] = builder.Stats(w);
    });
    for (int w = 0; w < kStreams; ++w) {
      ASSERT_TRUE(SameBytes(stats[w], SortedSummarize(builder.Profile(w))))
          << "t=" << t << " w=" << w;
    }
  }
}

// ---------------------------------------------------------------------------
// ReplayFeed buffer reuse
// ---------------------------------------------------------------------------

TEST(IngestPlaneTest, ReplayFeedNextReusesCallerBuffer) {
  util::Rng rng(5);
  std::vector<std::string> names = {"w0", "w1", "w2"};
  std::vector<std::vector<TelemetrySample>> steps;
  for (int t = 0; t < 10; ++t) steps.push_back(RandomStep(&rng, 3));
  ReplayFeed feed(names, steps);

  std::vector<TelemetrySample> samples;
  ASSERT_TRUE(feed.Next(&samples));
  const TelemetrySample* buffer = samples.data();
  while (feed.Next(&samples)) {
    // Steady state never reallocates: every step has the same workload
    // count, so assign() reuses the first step's capacity.
    EXPECT_EQ(samples.data(), buffer);
  }
}

// ---------------------------------------------------------------------------
// Sharded drift scan
// ---------------------------------------------------------------------------

monitor::ProfileStats StatsWithCpu(double p95_cpu) {
  monitor::ProfileStats stats;
  stats.p95_cpu_cores = p95_cpu;
  stats.p95_ram_bytes = 8e9;
  return stats;
}

TEST(DriftScanTest, PerStripeScansFoldToTheSerialDecision) {
  DriftConfig config;
  config.cooldown_steps = 0;
  DriftDetector detector(config);
  std::vector<monitor::ProfileStats> reference(8, StatsWithCpu(1.0));
  detector.Rebase(0, reference);

  // Streams 2 and 6 drift (different halves).
  std::vector<monitor::ProfileStats> current = reference;
  current[2] = StatsWithCpu(2.0);
  current[6] = StatsWithCpu(3.0);

  ASSERT_TRUE(detector.ScanEnabled(10, current.size()));
  const StripeMap map(8, 2);
  std::vector<DriftScan> scans;
  for (int s = 0; s < map.num_stripes(); ++s) {
    scans.push_back(detector.ScanRange(current, map.begin(s), map.end(s)));
  }
  const DriftDecision sharded = detector.Decide(scans);
  // Reference: the whole stream set scanned as one stripe.
  const DriftDecision serial = detector.Decide(
      detector.ScanRange(current, 0, static_cast<int>(current.size())),
      /*drifted_shards=*/1);

  EXPECT_TRUE(sharded.resolve);
  EXPECT_EQ(sharded.reason, serial.reason);
  EXPECT_EQ(sharded.reason, "drift:w2");  // lowest drifted stream wins
  EXPECT_EQ(sharded.first_stream, 2);
  EXPECT_EQ(sharded.drifted_streams, 2);
  EXPECT_EQ(serial.drifted_streams, 2);
  EXPECT_EQ(sharded.drifted_shards, 2);
}

TEST(DriftScanTest, CooldownAndSizeMismatchDisableTheScan) {
  DriftConfig config;
  config.cooldown_steps = 6;
  DriftDetector detector(config);
  EXPECT_FALSE(detector.ScanEnabled(3, 1));  // no reference yet
  detector.Rebase(0, {StatsWithCpu(1.0)});
  EXPECT_FALSE(detector.ScanEnabled(3, 1));  // inside cooldown
  EXPECT_TRUE(detector.ScanEnabled(6, 1));
  EXPECT_FALSE(detector.ScanEnabled(6, 2));  // stream-count mismatch
}

// ---------------------------------------------------------------------------
// Controller transcripts across ingest thread counts
// ---------------------------------------------------------------------------

std::string RunScenarioHistory(const trace::ScenarioTelemetry& scenario,
                               const ControllerConfig& config) {
  ConsolidationController controller(config);
  ReplayFeed feed = ReplayFeed::FromProfiles(scenario.profiles);
  controller.RunToEnd(&feed);
  return controller.RenderHistory();
}

ControllerConfig MakeScenarioConfig(const trace::ScenarioTelemetry& scenario) {
  ControllerConfig config;
  config.base.workloads = scenario.profiles;
  config.num_servers = 4;
  config.seed = 11;
  return config;
}

TEST(IngestControllerTest, HistoryByteIdenticalAcrossIngestThreads) {
  for (const trace::ScenarioKind kind :
       {trace::ScenarioKind::kDiurnal, trace::ScenarioKind::kFlashCrowd}) {
    trace::ScenarioConfig scenario_config;
    scenario_config.steps = 48;
    scenario_config.seed = 11;
    const trace::ScenarioTelemetry scenario =
        trace::MakeScenario(kind, scenario_config);
    SCOPED_TRACE(kind == trace::ScenarioKind::kDiurnal ? "diurnal"
                                                       : "flash-crowd");

    // Reference: the default plane (auto stripes, one thread, no pool).
    ControllerConfig config = MakeScenarioConfig(scenario);
    const std::string reference = RunScenarioHistory(scenario, config);
    ASSERT_FALSE(reference.empty());

    config.ingest_stripes = 4;
    for (int threads : {1, 2, 4, 8}) {
      config.ingest_threads = threads;
      SCOPED_TRACE("ingest_threads=" + std::to_string(threads));
      EXPECT_EQ(RunScenarioHistory(scenario, config), reference);
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-stream drift re-solves with the portfolio
// ---------------------------------------------------------------------------

monitor::WorkloadProfile ConstantProfile(const std::string& name, double cpu,
                                         int steps) {
  monitor::WorkloadProfile p;
  p.name = name;
  p.cpu_cores = util::TimeSeries::Constant(300, steps, cpu);
  p.ram_bytes = util::TimeSeries::Constant(
      300, steps, 4.0 * static_cast<double>(util::kGiB));
  p.update_rows_per_sec = util::TimeSeries::Constant(300, steps, 10.0);
  p.working_set_bytes = 2.0 * static_cast<double>(util::kGiB);
  return p;
}

TEST(IngestControllerTest, MultiStreamDriftResolvesWithAPortfolioMember) {
  // Four steady workloads; after step 12, two of them (in different
  // stripes) jump 60% — drift on two streams at once.
  constexpr int kSteps = 24;
  std::vector<monitor::WorkloadProfile> profiles;
  for (int w = 0; w < 4; ++w) {
    profiles.push_back(ConstantProfile("w" + std::to_string(w), 1.0, kSteps));
  }
  for (int t = 12; t < kSteps; ++t) {
    profiles[1].cpu_cores.mutable_values()[t] = 1.6;
    profiles[3].cpu_cores.mutable_values()[t] = 1.6;
  }

  ControllerConfig config;
  config.base.workloads = profiles;
  config.num_servers = 4;
  config.seed = 11;
  config.migration_aware = true;
  config.drift.cooldown_steps = 1;
  config.ingest_threads = 2;
  config.ingest_stripes = 2;  // streams 1 and 3 land in different stripes

  ConsolidationController controller(config);
  ReplayFeed feed = ReplayFeed::FromProfiles(profiles);
  controller.RunToEnd(&feed);

  const ControlEvent* drift_event = nullptr;
  for (const auto& e : controller.history()) {
    if (e.reason.rfind("drift:", 0) == 0) drift_event = &e;
  }
  ASSERT_NE(drift_event, nullptr) << controller.RenderHistory();
  // Drift across two stripes re-solves like every other trigger: the
  // adopted plan comes from one of the portfolio's members.
  EXPECT_NE(std::find(config.solvers.begin(), config.solvers.end(),
                      drift_event->winner),
            config.solvers.end())
      << drift_event->winner;
}

}  // namespace
}  // namespace kairos::online
