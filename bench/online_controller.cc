// Online consolidation controller scenario sweep: streams the four
// serving-traffic scenarios (stable / diurnal / flash-crowd / node-drain)
// through the control loop twice — migration-aware (warm-started, move
// penalty) vs cold re-solve — and reports re-solve counts, migration
// moves, staging, and final placement quality. The headline: on the
// diurnal scenario the migration-aware loop needs far fewer moves at an
// equal-or-better final service objective.
//
//   build/bench_online_controller [--smoke] [--metrics-out=<path>]
//
// --smoke shrinks the horizon for CI; --metrics-out writes the
// BENCH_online_controller.json report (samples/sec and
// detection-to-migration latency KPIs included).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/evaluator.h"
#include "obs/sink.h"
#include "online/controller.h"
#include "online/ingest.h"
#include "trace/scenario.h"
#include "util/rng.h"
#include "util/table.h"

using namespace kairos;

namespace {

/// Non-null when --metrics-out is set: every scenario's controller feeds
/// the one sink (tracks distinguish solvers; the "controller" track
/// accumulates all stage timelines in run order).
obs::Sink* g_sink = nullptr;

struct SweepResult {
  int steps = 0;
  int resolves = 0;
  int moves = 0;
  int stages = 0;
  bool all_safe = true;
  int final_servers = 0;
  double final_service_objective = 0;
};

SweepResult RunScenario(trace::ScenarioKind kind, bool migration_aware,
                        int steps, bench::BenchReporter* reporter) {
  obs::ProfileScope scenario_scope(
      reporter->profiler(), "scenario/" + trace::ScenarioName(kind) +
                                (migration_aware ? "/aware" : "/cold"));
  trace::ScenarioConfig scenario_config;
  scenario_config.steps = steps;
  scenario_config.seed = bench::kSeed;
  const trace::ScenarioTelemetry scenario =
      trace::MakeScenario(kind, scenario_config);

  online::ControllerConfig config;
  config.base.workloads = scenario.profiles;
  config.num_servers = 4;
  config.migration_aware = migration_aware;
  config.seed = bench::kSeed;
  config.sink = g_sink;
  online::ConsolidationController controller(config);

  online::ReplayFeed feed = online::ReplayFeed::FromProfiles(scenario.profiles);
  feed.AttachSink(g_sink);
  std::vector<online::TelemetrySample> samples;
  SweepResult result;
  const bench::ScopedTimer scenario_timer;
  while (feed.Next(&samples)) {
    if (result.steps == scenario.drain_step) controller.DrainHighestServer();
    controller.Ingest(samples);
    ++result.steps;
  }

  result.resolves = static_cast<int>(controller.history().size());
  result.moves = controller.total_moves();
  for (const auto& e : controller.history()) {
    result.stages += e.stages;
    result.all_safe = result.all_safe && e.migration_safe;
  }
  result.final_servers =
      core::Assignment{controller.assignment()}.ServersUsed();
  result.final_service_objective = controller.CurrentServiceObjective();
  reporter->DigestPlan(controller.assignment(), result.final_service_objective);
  reporter->DigestHistory(controller.RenderHistory());
  if (g_sink != nullptr) {
    g_sink->metrics()
        .gauge("bench.scenario_seconds." + trace::ScenarioName(kind) +
               (migration_aware ? ".aware" : ".cold"))
        ->Set(scenario_timer.Seconds());
  }
  return result;
}

/// Hard determinism gate: the diurnal and flash-crowd transcripts must be
/// byte-identical on the default ingest plane (auto stripes, one thread)
/// and on 8 stripes at 1/2/4/8 ingest threads.
/// Returns false (and reports the divergence on stderr) on any mismatch.
bool VerifyIngestDeterminism(int steps) {
  bool ok = true;
  for (const trace::ScenarioKind kind :
       {trace::ScenarioKind::kDiurnal, trace::ScenarioKind::kFlashCrowd}) {
    trace::ScenarioConfig scenario_config;
    scenario_config.steps = steps;
    scenario_config.seed = bench::kSeed;
    const trace::ScenarioTelemetry scenario =
        trace::MakeScenario(kind, scenario_config);

    auto run = [&](int ingest_threads, int ingest_stripes) {
      online::ControllerConfig config;
      config.base.workloads = scenario.profiles;
      config.num_servers = 4;
      config.seed = bench::kSeed;
      config.ingest_threads = ingest_threads;
      config.ingest_stripes = ingest_stripes;
      // No sink: the gate must not disturb the report's counter set.
      online::ConsolidationController controller(config);
      online::ReplayFeed feed =
          online::ReplayFeed::FromProfiles(scenario.profiles);
      controller.RunToEnd(&feed);
      return controller.RenderHistory();
    };

    const std::string reference = run(1, 0);  // the default plane
    for (const int threads : {1, 2, 4, 8}) {
      if (run(threads, 8) != reference) {
        std::fprintf(stderr,
                     "FAIL: %s transcript diverges at ingest_threads=%d\n",
                     trace::ScenarioName(kind).c_str(), threads);
        ok = false;
      }
    }
  }
  return ok;
}

/// Striped ingestion throughput sweep: N streams ingested for a fixed
/// number of steps at 1/2/4/8 threads, pure telemetry -> rolling-profile
/// path (no re-solves). Prints samples/sec per thread count, reports
/// ingest.samples_per_sec.tN / ingest.speedup.t8 KPIs, and cross-checks a
/// state fingerprint across thread counts (bit-identity, non-zero exit on
/// divergence).
bool RunIngestSweep(bench::BenchReporter* reporter, bool smoke) {
  const int streams = smoke ? 20000 : 1000000;
  const int steps = smoke ? 16 : 32;
  reporter->Config("ingest_streams", static_cast<int64_t>(streams));
  reporter->Config("ingest_steps", static_cast<int64_t>(steps));

  // One procedurally filled step, reused every iteration: the timed region
  // covers only the ingestion hot loop, never sample generation.
  std::vector<online::TelemetrySample> step(streams);
  util::Rng rng(bench::kSeed);
  for (auto& s : step) {
    s.cpu_cores = rng.Exponential(0.8);
    s.ram_bytes = rng.Uniform(1e9, 8e9);
    s.update_rows_per_sec = rng.Exponential(50.0);
    s.working_set_bytes = rng.Uniform(1e9, 6e9);
  }

  bench::Banner("striped ingestion sweep (" + std::to_string(streams) +
                " streams x " + std::to_string(steps) + " steps)");
  util::Table table({"threads", "stripes", "seconds", "samples/sec", "speedup"});

  // Fingerprint of a deterministic stream subset: bit-identical across
  // thread counts or the sweep fails the run.
  auto fingerprint = [&](online::StreamingProfileBuilder& builder) {
    std::vector<double> fp;
    for (int w = 0; w < builder.num_workloads(); w += 97) {
      const monitor::ProfileStats stats = builder.Stats(w);
      fp.push_back(stats.p95_cpu_cores);
      fp.push_back(stats.mean_cpu_cores);
      fp.push_back(stats.p95_ram_bytes);
      fp.push_back(stats.peak_cpu_cores);
    }
    return fp;
  };

  std::vector<double> reference_fp;
  double serial_sps = 0;
  bool ok = true;
  for (const int threads : {1, 2, 4, 8}) {
    online::StreamingProfileBuilder builder(streams, 12, 300.0);
    online::IngestOptions options;
    options.threads = threads;
    online::IngestPlane plane(&builder, options);
    plane.AttachSink(g_sink);

    const bench::ScopedTimer timer;
    for (int t = 0; t < steps; ++t) plane.IngestStep(step);
    const double seconds = timer.Seconds();

    const double sps =
        static_cast<double>(streams) * steps / (seconds > 0 ? seconds : 1e-9);
    if (threads == 1) {
      serial_sps = sps;
      reference_fp = fingerprint(builder);
    } else if (fingerprint(builder) != reference_fp) {
      std::fprintf(stderr,
                   "FAIL: ingest state fingerprint diverges at %d threads\n",
                   threads);
      ok = false;
    }
    table.AddRow({std::to_string(threads),
                  std::to_string(plane.stripes().num_stripes()),
                  util::FormatDouble(seconds, 3),
                  util::FormatDouble(sps / 1e6, 1) + "M",
                  util::FormatDouble(sps / serial_sps, 2) + "x"});
    reporter->Kpi("ingest.samples_per_sec.t" + std::to_string(threads), sps);
    if (threads == 8) reporter->Kpi("ingest.speedup.t8", sps / serial_sps);
  }
  std::printf("%s", table.ToString().c_str());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter("online_controller", argc, argv);
  const bool smoke = reporter.smoke();
  const int steps = smoke ? 64 : 288;
  g_sink = reporter.sink();
  reporter.Config("steps", static_cast<int64_t>(steps));

  bench::Banner("online controller scenario sweep (" +
                std::to_string(steps) + " steps, migration-aware vs cold)");

  util::Table table({"scenario", "mode", "re-solves", "moves", "stages",
                     "safe", "final servers", "final objective"});
  double diurnal_moves[2] = {0, 0};
  double diurnal_objective[2] = {0, 0};
  for (trace::ScenarioKind kind : trace::AllScenarios()) {
    for (int mode = 0; mode < 2; ++mode) {
      const bool aware = mode == 0;
      const SweepResult r = RunScenario(kind, aware, steps, &reporter);
      table.AddRow({trace::ScenarioName(kind), aware ? "aware" : "cold",
                    std::to_string(r.resolves), std::to_string(r.moves),
                    std::to_string(r.stages), r.all_safe ? "yes" : "NO",
                    std::to_string(r.final_servers),
                    util::FormatDouble(r.final_service_objective, 1)});
      if (kind == trace::ScenarioKind::kDiurnal) {
        diurnal_moves[mode] = r.moves;
        diurnal_objective[mode] = r.final_service_objective;
      }
    }
  }
  std::printf("%s", table.ToString().c_str());

  std::printf(
      "\ndiurnal: migration-aware used %.0f moves vs %.0f cold (%.1fx fewer), "
      "final objective %.1f vs %.1f\n",
      diurnal_moves[0], diurnal_moves[1],
      diurnal_moves[0] > 0 ? diurnal_moves[1] / diurnal_moves[0] : 0.0,
      diurnal_objective[0], diurnal_objective[1]);

  reporter.Kpi("diurnal.aware_moves", diurnal_moves[0]);
  reporter.Kpi("diurnal.cold_moves", diurnal_moves[1]);

  // Striped parallel ingestion: hard determinism gate, then the
  // throughput sweep (which also cross-checks state bit-identity).
  bench::Banner("ingest determinism gate (1/2/4/8 threads vs serial)");
  const int determinism_steps = smoke ? 32 : 64;
  bool ok = VerifyIngestDeterminism(determinism_steps);
  if (ok) {
    std::printf("transcripts byte-identical across ingest thread counts "
                "(%d steps, diurnal + flash-crowd)\n",
                determinism_steps);
  }
  ok = RunIngestSweep(&reporter, smoke) && ok;

  const int report_status = reporter.WriteReport();
  return ok ? report_status : 1;
}
