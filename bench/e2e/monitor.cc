// monitor-fleet: the online "read" path at fleet scale, solver bypassed.
// 250,000 telemetry streams go through one IngestPlane; every second step
// is a control step that follows the controller's detection protocol: a
// Stats pass per stripe, ScanRange per stripe folded in stripe order,
// Decide, and Rebase when the decision fires. The estimator state (about
// 130 MB) is larger than the last-level cache.
#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/common.h"
#include "monitor/profile.h"
#include "obs/profile.h"
#include "online/drift.h"
#include "online/ingest.h"
#include "online/streaming_profile.h"
#include "online/telemetry.h"
#include "util/rng.h"

namespace kairos::e2e {

namespace {

constexpr int kStreams = 250000;
constexpr size_t kWindow = 12;
constexpr double kInterval = 300.0;
constexpr int kWarmupSteps = 24;
constexpr int kControlInterval = 2;
/// Streams whose CPU steps up x1.5 each step (0.1%).
constexpr int kChurnPerStep = kStreams / 1000;
/// Pre-drawn +-10% noise vectors, cycled step by step.
constexpr int kNoiseVectors = 8;
/// Steps every run completes: the drift counts are taken over these.
constexpr int kFixedSteps = 40;
/// Streams mirrored into the serial-path shadow builder.
constexpr int kShadowStreams = 1024;

/// Section ids of the traced pass (one per call into a layer).
struct MonitorTrace {
  obs::Profiler profiler;
  uint32_t ingest = profiler.InternSection("online.ingest");
  uint32_t stats = profiler.InternSection("online.stats");
  uint32_t drift = profiler.InternSection("online.drift");
  uint32_t rebase = profiler.InternSection("online.drift.rebase");
};

/// Inputs, the system under test, and the serial-path shadow. Inputs are a
/// pure function of the seed: exponential/uniform baselines, noise vectors,
/// and a seeded churn sequence.
class Monitor {
 public:
  explicit Monitor(uint64_t seed)
      : builder_(kStreams, kWindow, kInterval),
        plane_(&builder_, online::IngestOptions{/*threads=*/1, /*stripes=*/0}),
        drift_(DriftConfigFor()),
        shadow_(kShadowStreams, kWindow, kInterval),
        churn_(DeriveSeed(seed, 2)),
        base_(kStreams),
        scale_(kStreams, 1.0),
        noise_(static_cast<size_t>(kNoiseVectors) * kStreams),
        step_(kStreams),
        shadow_step_(kShadowStreams),
        scans_(plane_.stripes().num_stripes()) {
    util::Rng rng(DeriveSeed(seed, 1));
    for (online::TelemetrySample& b : base_) {
      b.cpu_cores = rng.Exponential(0.8);
      b.ram_bytes = rng.Uniform(1e9, 8e9);
      b.update_rows_per_sec = rng.Exponential(50.0);
      b.working_set_bytes = rng.Uniform(1e9, 6e9);
    }
    for (float& f : noise_) f = static_cast<float>(rng.Uniform(0.9, 1.1));
    // Warm-up: fill the rolling windows, then take the first reference.
    for (; t_ < kWarmupSteps; ++t_) {
      Fill();
      plane_.IngestStep(step_);
      shadow_.Ingest(shadow_step_);
    }
    drift_.Rebase(t_, StatsPass());
  }

  /// One telemetry step; on control steps, the detection protocol. Returns
  /// the step's busy seconds and sets `*decide_s` (step start to drift
  /// decision) on control steps, -1 otherwise.
  double Step(MonitorTrace* trace, double* decide_s) {
    obs::Profiler* profiler = trace ? &trace->profiler : nullptr;
    Fill();
    shadow_.Ingest(shadow_step_);
    *decide_s = -1;
    const auto start = Clock::now();
    {
      obs::ProfileScope scope(profiler, trace ? trace->ingest : 0);
      plane_.IngestStep(step_);
    }
    if (t_ % kControlInterval != 0 || !drift_.ScanEnabled(t_, kStreams)) {
      ++t_;
      return SecondsSince(start);
    }
    std::vector<monitor::ProfileStats> stats;
    {
      obs::ProfileScope scope(profiler, trace ? trace->stats : 0);
      stats = StatsPass();
    }
    online::DriftDecision decision;
    {
      obs::ProfileScope scope(profiler, trace ? trace->drift : 0);
      plane_.ForEachStripe([&](int s, int begin, int end) {
        scans_[s] = drift_.ScanRange(stats, begin, end);
      });
      online::DriftScan folded;
      int drifted_shards = 0;
      for (const online::DriftScan& scan : scans_) {
        if (scan.drifted_streams == 0) continue;
        if (folded.first_stream < 0) folded.first_stream = scan.first_stream;
        folded.drifted_streams += scan.drifted_streams;
        ++drifted_shards;
      }
      decision = drift_.Decide(folded, drifted_shards);
    }
    *decide_s = SecondsSince(start);
    CompareShadow(stats);  // untimed
    double rebase_s = 0;
    if (decision.resolve) {
      obs::ProfileScope scope(profiler, trace ? trace->rebase : 0);
      const auto rebase_start = Clock::now();
      drift_.Rebase(t_, std::move(stats));
      rebase_s = SecondsSince(rebase_start);
      ++fired_;
      drifted_streams_ += decision.drifted_streams;
    }
    ++t_;
    return *decide_s + rebase_s;
  }

  int fired() const { return fired_; }
  int64_t drifted_streams() const { return drifted_streams_; }
  int64_t shadow_mismatches() const { return shadow_mismatches_; }

 private:
  static online::DriftConfig DriftConfigFor() {
    // No cooldown: with the solver bypassed there is no re-solve to settle,
    // so every control step runs the full detection pass.
    online::DriftConfig config;
    config.cooldown_steps = 0;
    return config;
  }

  /// Builds step t_'s samples: baseline x churned CPU scale x noise.
  void Fill() {
    for (int k = 0; k < kChurnPerStep; ++k) {
      scale_[churn_.UniformInt(0, kStreams - 1)] *= 1.5;
    }
    const float* noise = &noise_[static_cast<size_t>(t_ % kNoiseVectors) * kStreams];
    for (int w = 0; w < kStreams; ++w) {
      const online::TelemetrySample& b = base_[w];
      const double f = noise[w];
      step_[w].cpu_cores = b.cpu_cores * scale_[w] * f;
      step_[w].ram_bytes = b.ram_bytes * f;
      step_[w].update_rows_per_sec = b.update_rows_per_sec * f;
      step_[w].working_set_bytes = b.working_set_bytes;
    }
    std::copy(step_.begin(), step_.begin() + kShadowStreams, shadow_step_.begin());
  }

  /// Per-stripe Stats into a fresh vector, as the controller's
  /// CurrentStats() builds one per control step.
  std::vector<monitor::ProfileStats> StatsPass() {
    std::vector<monitor::ProfileStats> stats(kStreams);
    plane_.ForEachStripe([&](int, int begin, int end) {
      for (int w = begin; w < end; ++w) stats[w] = builder_.Stats(w);
    });
    return stats;
  }

  void CompareShadow(const std::vector<monitor::ProfileStats>& stats) {
    for (int w = 0; w < kShadowStreams; ++w) {
      const monitor::ProfileStats a = shadow_.Stats(w);
      if (std::memcmp(&a, &stats[w], sizeof(a)) != 0) ++shadow_mismatches_;
    }
  }

  online::StreamingProfileBuilder builder_;
  online::IngestPlane plane_;
  online::DriftDetector drift_;
  online::StreamingProfileBuilder shadow_;
  util::Rng churn_;
  std::vector<online::TelemetrySample> base_;
  std::vector<double> scale_;
  std::vector<float> noise_;
  std::vector<online::TelemetrySample> step_;
  std::vector<online::TelemetrySample> shadow_step_;
  std::vector<online::DriftScan> scans_;
  int t_ = 0;
  int fired_ = 0;
  int64_t drifted_streams_ = 0;
  int64_t shadow_mismatches_ = 0;
};

struct LoopResult {
  int steps = 0;
  double busy_s = 0;
  double wall_s = 0;
  std::vector<double> decide_ms;
  int fixed_fired = 0;
  int64_t fixed_drifted_streams = 0;
};

/// Runs steps until `seconds` have passed and kFixedSteps are done, or
/// exactly `steps` steps when `steps` > 0.
LoopResult RunLoop(Monitor* monitor, double seconds, int steps,
                   MonitorTrace* trace) {
  LoopResult r;
  const auto start = Clock::now();
  while (steps > 0 ? r.steps < steps
                   : r.steps < kFixedSteps || SecondsSince(start) < seconds) {
    double decide_s = -1;
    r.busy_s += monitor->Step(trace, &decide_s);
    if (decide_s >= 0) r.decide_ms.push_back(1e3 * decide_s);
    if (++r.steps == kFixedSteps) {
      r.fixed_fired = monitor->fired();
      r.fixed_drifted_streams = monitor->drifted_streams();
    }
  }
  r.wall_s = SecondsSince(start);
  return r;
}

void CheckLoop(const Monitor& monitor, const LoopResult& r, Report* report) {
  report->attempted += r.steps;
  report->Check(monitor.shadow_mismatches() == 0,
                "shadow builder Stats differ from the IngestPlane's on " +
                    std::to_string(monitor.shadow_mismatches()) + " streams");
  report->Check(r.fixed_fired > 0, "drift never fired under churn");
}

}  // namespace

Report RunMonitor(const Args& args) {
  Report report;
  std::unique_ptr<Monitor> monitor;
  std::vector<double> setup_s;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    monitor.reset();
    const auto t0 = Clock::now();
    monitor = std::make_unique<Monitor>(args.seed);
    setup_s.push_back(SecondsSince(t0));
  }

  const LoopResult loop =
      RunLoop(monitor.get(), args.trace ? args.seconds / 2 : args.seconds, 0,
              nullptr);
  CheckLoop(*monitor, loop, &report);
  report.Quality("drift_fired", loop.fixed_fired);
  report.Quality("drifted_streams", static_cast<double>(loop.fixed_drifted_streams));
  report.Info("loop.steps", loop.steps);
  report.Info("loop.control_steps", static_cast<double>(loop.decide_ms.size()));
  report.Info("loop.wall_s", loop.wall_s);

  if (!args.trace) {
    report.Set("setup_s", Quantile(setup_s, 0.5));
    report.Set("latency_ms_p50", Quantile(loop.decide_ms, 0.5));
    report.Set("latency_ms_p90", Quantile(loop.decide_ms, 0.9));
    report.Set("throughput_per_s", loop.steps / loop.busy_s);
    report.Set("peak_rss_mb", PeakRssMb());
    return report;
  }

  // The traced pass replays the same steps from a fresh set-up.
  monitor.reset();
  monitor = std::make_unique<Monitor>(args.seed);
  MonitorTrace trace;
  const LoopResult traced = RunLoop(monitor.get(), 0, loop.steps, &trace);
  CheckLoop(*monitor, traced, &report);
  std::map<std::string, double> section_s;
  for (const obs::ProfileEntry& e : trace.profiler.SectionProfile()) {
    section_s[e.name] = e.total_seconds;
  }
  const double samples = static_cast<double>(traced.steps) * kStreams;
  const double scanned =
      static_cast<double>(traced.decide_ms.size()) * kStreams;
  report.Set("online.ingest.ns_per_sample",
             1e9 * section_s["online.ingest"] / samples);
  report.Set("online.stats.ns_per_stream",
             scanned > 0 ? 1e9 * section_s["online.stats"] / scanned : 0);
  report.Set("online.drift.ns_per_stream",
             scanned > 0 ? 1e9 * section_s["online.drift"] / scanned : 0);
  report.Set("online.drift.fired", traced.fixed_fired);
  ReportTraceCoverage(&report, trace.profiler, loop.wall_s, traced.wall_s,
                      /*dropped_events=*/0);
  return report;
}

}  // namespace kairos::e2e
