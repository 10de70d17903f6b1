// control-churn: the online "write" path. ConsolidationController replays
// of the diurnal, flash-crowd and node-drain scenarios, one Ingest per
// telemetry step and DrainHighestServer at the drain step; every control
// step that adopts a plan runs a warm-started portfolio re-solve plus
// MigrationPlanner staging. The controller is a synchronous loop (its real
// input interval is 300 s), so the benchmark measures service time.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/common.h"
#include "obs/profile.h"
#include "obs/sink.h"
#include "online/controller.h"
#include "online/telemetry.h"
#include "trace/scenario.h"

namespace kairos::e2e {

namespace {

constexpr int kPoolRounds = 16;
/// Rounds every run completes whatever the machine speed: quality values
/// and counts are taken over exactly these replays.
constexpr int kFixedRounds = 2;
constexpr int kWorkloads = 48;
constexpr int kSteps = 288;
constexpr int kServers = 16;

const std::vector<trace::ScenarioKind>& Kinds() {
  static const std::vector<trace::ScenarioKind> kinds = {
      trace::ScenarioKind::kDiurnal, trace::ScenarioKind::kFlashCrowd,
      trace::ScenarioKind::kNodeDrain};
  return kinds;
}

struct Scenario {
  std::string label;
  std::vector<monitor::WorkloadProfile> profiles;
  std::vector<std::vector<online::TelemetrySample>> steps;
  int drain_step = -1;
  uint64_t controller_seed = 1;
};

std::vector<Scenario> MakePool(uint64_t seed) {
  std::vector<Scenario> pool;
  for (int r = 0; r < kPoolRounds; ++r) {
    trace::ScenarioConfig config;
    config.workloads = kWorkloads;
    config.steps = kSteps;
    config.seed = DeriveSeed(seed, 1, r);
    for (trace::ScenarioKind kind : Kinds()) {
      trace::ScenarioTelemetry telemetry = trace::MakeScenario(kind, config);
      Scenario s;
      s.label = trace::ScenarioName(kind) + "/r" + std::to_string(r);
      s.profiles = std::move(telemetry.profiles);
      s.drain_step = telemetry.drain_step;
      s.controller_seed = DeriveSeed(seed, 2, pool.size());
      online::ReplayFeed feed = online::ReplayFeed::FromProfiles(s.profiles);
      std::vector<online::TelemetrySample> step;
      while (feed.Next(&step)) s.steps.push_back(step);
      pool.push_back(std::move(s));
    }
  }
  return pool;
}

online::ControllerConfig MakeConfig(const Scenario& s, obs::Sink* sink) {
  online::ControllerConfig config;
  config.base.workloads = s.profiles;
  config.num_servers = kServers;
  config.threads = kThreads;
  config.seed = s.controller_seed;
  config.sink = sink;
  return config;
}

/// The traced pass's span recorder: one top-level section per call into
/// the controller.
struct ControlTrace {
  obs::Profiler profiler;
  uint32_t construct = profiler.InternSection("online.controller.construct");
  uint32_t ingest = profiler.InternSection("online.controller.ingest");
  uint32_t drain = profiler.InternSection("online.controller.drain");
  int64_t dropped_events = 0;
};

struct ReplayRecord {
  int item = 0;
  int steps = 0;
  std::vector<double> react_s;  ///< Calls that adopted a plan.
  std::vector<double> check_s;  ///< Control steps that did not re-solve.
  double busy_s = 0;            ///< All Ingest + DrainHighestServer time.
  bool plans_in_range = true;
  std::string transcript;

  // Adopted plans.
  int adopted = 0, bootstrap = 0, drift = 0, violation = 0, drain = 0;
  int moves = 0, stages = 0, bounces = 0, unsafe = 0, infeasible = 0;
  double servers = 0;
  std::map<std::string, int> wins;

  // Traced pass: stage offsets from the controller's sink, member spans,
  // evaluator and ingest counters.
  std::vector<double> detect_ms, resolve_ms, plan_ms;
  std::map<std::string, double> member_busy_s;
  int64_t move_delta_ops = 0, evaluate_ops = 0, apply_move_ops = 0;
  double ingest_s = 0;
  int64_t samples_ingested = 0;

  // End state, for the evaluator probes.
  core::ConsolidationProblem snapshot;
  std::vector<int> assignment;
};

void FoldSink(const obs::Sink& sink, ReplayRecord* r) {
  const obs::TraceSink& trace = sink.trace();
  const std::vector<std::string> tracks = trace.TrackNames();
  const std::vector<std::string> names = trace.EventNames();
  double detect = 0, resolve = 0;
  for (const obs::TraceEvent& e : trace.MergedTrace()) {
    if (tracks[e.track] != "controller") continue;
    const std::string& name = names[e.name];
    if (name == "detect") {
      detect = e.d0;
      r->detect_ms.push_back(1e3 * e.d0);
    } else if (name == "resolve") {
      resolve = e.d0;
      r->resolve_ms.push_back(1e3 * (e.d0 - detect));
    } else if (name == "plan") {
      r->plan_ms.push_back(1e3 * (e.d0 - resolve));
    }
  }
  for (const obs::ProfileEntry& e : obs::BuildSpanProfile(trace)) {
    if (e.track.rfind("portfolio/", 0) != 0 || e.name != "solver") continue;
    r->member_busy_s[e.track.substr(e.track.find('-') + 1)] += e.total_seconds;
  }
  r->move_delta_ops = CounterValue(sink, "evaluator.move_delta_ops");
  r->evaluate_ops = CounterValue(sink, "evaluator.evaluate_ops");
  r->apply_move_ops = CounterValue(sink, "evaluator.apply_move_ops");
  r->samples_ingested = CounterValue(sink, "controller.samples_ingested");
  for (const auto& [gauge, value] : sink.metrics().Snapshot().gauges) {
    if (gauge == "controller.ingest_seconds") r->ingest_s = value;
  }
}

void Summarize(const online::ConsolidationController& controller,
               ReplayRecord* r) {
  for (const online::ControlEvent& e : controller.history()) {
    ++r->adopted;
    if (e.reason == "bootstrap") {
      ++r->bootstrap;
    } else if (e.reason.rfind("drift:", 0) == 0) {
      ++r->drift;
    } else if (e.reason == "violation-forecast") {
      ++r->violation;
    } else if (e.reason == "node-drain") {
      ++r->drain;
    }
    r->moves += e.moves;
    r->stages += e.stages;
    r->unsafe += e.migration_safe ? 0 : 1;
    r->infeasible += e.feasible ? 0 : 1;
    r->servers += e.servers_after;
    ++r->wins[e.winner];
  }
  for (const online::MigrationPlan& plan : controller.migration_plans()) {
    for (const online::MigrationStage& stage : plan.stages) {
      for (const online::MigrationMove& move : stage.moves) {
        r->bounces += move.bounce ? 1 : 0;
      }
    }
  }
  r->transcript = controller.RenderHistory();
}

/// Replays one scenario through a fresh controller, timing each call.
ReplayRecord Replay(const std::vector<Scenario>& pool, int item,
                    ControlTrace* trace) {
  const Scenario& s = pool[item];
  obs::Profiler* profiler = trace ? &trace->profiler : nullptr;
  std::unique_ptr<obs::Sink> sink;
  if (trace != nullptr) sink = std::make_unique<obs::Sink>();
  ReplayRecord r;
  r.item = item;

  std::unique_ptr<online::ConsolidationController> owned;
  {
    obs::ProfileScope scope(profiler, trace ? trace->construct : 0);
    owned = std::make_unique<online::ConsolidationController>(
        MakeConfig(s, sink.get()));
  }
  online::ConsolidationController& controller = *owned;
  const online::ControllerConfig defaults;
  const auto adopted_in_range = [&] {
    for (int server : controller.history().back().plan) {
      if (server < 0 || server >= controller.active_servers()) return false;
    }
    return true;
  };

  for (int t = 0; t < static_cast<int>(s.steps.size()); ++t) {
    if (t == s.drain_step) {
      const size_t before = controller.history().size();
      obs::ProfileScope scope(profiler, trace ? trace->drain : 0);
      const auto start = Clock::now();
      controller.DrainHighestServer();
      const double dt = SecondsSince(start);
      r.busy_s += dt;
      if (controller.history().size() > before) {
        r.react_s.push_back(dt);
        r.plans_in_range = r.plans_in_range && adopted_in_range();
      }
    }
    const size_t before = controller.history().size();
    const bool placed = !controller.assignment().empty();
    double dt = 0;
    {
      obs::ProfileScope scope(profiler, trace ? trace->ingest : 0);
      const auto start = Clock::now();
      controller.Ingest(s.steps[t]);
      dt = SecondsSince(start);
    }
    r.busy_s += dt;
    if (controller.history().size() > before) {
      r.react_s.push_back(dt);
      r.plans_in_range = r.plans_in_range && adopted_in_range();
    } else if (placed && t + 1 >= defaults.warmup_samples &&
               (defaults.control_interval <= 1 ||
                t % defaults.control_interval == 0)) {
      r.check_s.push_back(dt);
    }
    ++r.steps;
  }

  Summarize(controller, &r);
  if (sink != nullptr) {
    FoldSink(*sink, &r);
    trace->dropped_events += sink->trace().dropped_events();
    r.snapshot = controller.SnapshotProblem();
    r.assignment = controller.assignment();
  }
  return r;
}

/// Replays scenarios round by round (one round = the three scenarios of one
/// seed) under the RoundClock stop rule.
std::vector<ReplayRecord> RunLoop(const std::vector<Scenario>& pool,
                                  double seconds, int rounds,
                                  ControlTrace* trace, double* wall_s) {
  const int per_round = static_cast<int>(Kinds().size());
  std::vector<ReplayRecord> replays;
  RoundClock clock(seconds, rounds, kFixedRounds);
  for (int r = 0; clock.Continue(r); ++r) {
    for (int k = 0; k < per_round; ++k) {
      replays.push_back(Replay(pool, (r % kPoolRounds) * per_round + k, trace));
    }
  }
  *wall_s = clock.elapsed();
  return replays;
}

void CheckReplays(const std::vector<Scenario>& pool,
                  const std::vector<ReplayRecord>& replays, Report* report) {
  for (const ReplayRecord& r : replays) {
    report->Check(r.plans_in_range,
                  pool[r.item].label + ": adopted plan outside active_servers()");
    report->attempted += r.steps;
    report->failed += r.infeasible;
  }
}

/// Totals over the fixed first rounds: a pure function of the seed.
ReplayRecord FixedTotals(const std::vector<ReplayRecord>& replays) {
  ReplayRecord t;
  const size_t n = kFixedRounds * Kinds().size();
  for (size_t i = 0; i < n; ++i) {
    const ReplayRecord& r = replays[i];
    t.adopted += r.adopted;
    t.bootstrap += r.bootstrap;
    t.drift += r.drift;
    t.violation += r.violation;
    t.drain += r.drain;
    t.moves += r.moves;
    t.stages += r.stages;
    t.bounces += r.bounces;
    t.unsafe += r.unsafe;
    t.infeasible += r.infeasible;
    t.servers += r.servers;
    t.move_delta_ops += r.move_delta_ops;
    t.evaluate_ops += r.evaluate_ops;
    t.apply_move_ops += r.apply_move_ops;
  }
  return t;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Plan and migration outcomes over the fixed first rounds: a pure function
/// of the seed, recorded both as deterministic outputs and as layer rows.
void ReportQuality(const std::vector<ReplayRecord>& replays, Report* report) {
  const ReplayRecord t = FixedTotals(replays);
  const int resolves = t.adopted - t.bootstrap;
  report->Quality("adopted_plans", t.adopted);
  report->Quality("moves_per_resolve", Ratio(t.moves, resolves));
  report->Quality("unsafe_plan_frac", Ratio(t.unsafe, resolves));
  report->Quality("infeasible_frac", Ratio(t.infeasible, t.adopted));
  report->Quality("servers_mean", Ratio(t.servers, t.adopted));
  report->Set("online.controller.resolves.bootstrap", t.bootstrap);
  report->Set("online.controller.resolves.drift", t.drift);
  report->Set("online.controller.resolves.violation", t.violation);
  report->Set("online.controller.resolves.drain", t.drain);
  report->Set("online.migration.moves", t.moves);
  report->Set("online.migration.stages", t.stages);
  report->Set("online.migration.bounces", t.bounces);
  report->Set("online.migration.unsafe_plans", t.unsafe);
  report->Set("online.migration.moves_per_resolve", Ratio(t.moves, resolves));
  report->Set("online.migration.unsafe_plan_frac", Ratio(t.unsafe, resolves));
  report->Set("solve.portfolio.fleet_cost_mean", Ratio(t.servers, t.adopted));
  report->Set("solve.portfolio.infeasible_frac", Ratio(t.infeasible, t.adopted));
}

void ReportLayers(const std::vector<ReplayRecord>& replays, Report* report) {
  std::vector<double> detect_ms, resolve_ms, plan_ms, check_ms;
  std::map<std::string, double> busy_s;
  std::map<std::string, int> wins;
  double member_busy_s = 0, resolve_s = 0, ingest_s = 0;
  int64_t samples = 0;
  int adopted = 0;
  for (const ReplayRecord& r : replays) {
    detect_ms.insert(detect_ms.end(), r.detect_ms.begin(), r.detect_ms.end());
    resolve_ms.insert(resolve_ms.end(), r.resolve_ms.begin(), r.resolve_ms.end());
    plan_ms.insert(plan_ms.end(), r.plan_ms.begin(), r.plan_ms.end());
    for (double s : r.check_s) check_ms.push_back(1e3 * s);
    for (const auto& [member, s] : r.member_busy_s) {
      busy_s[member] += s;
      member_busy_s += s;
    }
    for (const auto& [member, n] : r.wins) wins[member] += n;
    for (double ms : r.resolve_ms) resolve_s += ms / 1e3;
    ingest_s += r.ingest_s;
    samples += r.samples_ingested;
    adopted += r.adopted;
  }
  report->Set("online.ingest.ns_per_sample",
              samples > 0 ? 1e9 * ingest_s / static_cast<double>(samples) : 0);
  report->Set("online.controller.detect_ms_mean", Mean(detect_ms));
  report->Set("online.controller.check_ms_p50", Quantile(check_ms, 0.5));
  report->Set("online.controller.check_ms_p90", Quantile(check_ms, 0.9));
  report->Set("online.migration.plan_ms_mean", Mean(plan_ms));
  report->Set("solve.portfolio.run_ms_mean", Mean(resolve_ms));
  report->Set("solve.portfolio.parallel_efficiency",
              Ratio(member_busy_s, kThreads * resolve_s));
  const double runs = static_cast<double>(resolve_ms.size());
  for (const std::string& m : PortfolioMembers()) {
    report->Set("solve." + m + ".busy_s", Ratio(busy_s[m], runs));
    report->Set("solve." + m + ".win_frac", Ratio(wins[m], adopted));
  }

  // Evaluator ops per adopted plan over the fixed rounds.
  const ReplayRecord t = FixedTotals(replays);
  report->Set("core.evaluator.move_delta_ops", Ratio(t.move_delta_ops, t.adopted));
  report->Set("core.evaluator.evaluate_ops", Ratio(t.evaluate_ops, t.adopted));
  report->Set("core.evaluator.apply_move_ops", Ratio(t.apply_move_ops, t.adopted));
}

}  // namespace

Report RunControl(const Args& args) {
  Report report;
  std::vector<Scenario> pool;
  std::vector<double> setup_s;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    pool.clear();
    const auto t0 = Clock::now();
    pool = MakePool(args.seed);
    // Warm-up: one controller through its bootstrap solve.
    online::ConsolidationController warm(MakeConfig(pool[0], nullptr));
    for (int t = 0; warm.history().empty() && t < kSteps; ++t) {
      warm.Ingest(pool[0].steps[t]);
    }
    setup_s.push_back(SecondsSince(t0));
  }

  double wall_s = 0;
  const std::vector<ReplayRecord> replays =
      RunLoop(pool, args.trace ? args.seconds / 2 : args.seconds, 0, nullptr,
              &wall_s);
  CheckReplays(pool, replays, &report);
  ReportQuality(replays, &report);
  // One scenario per run is replayed again; its transcript must match.
  const int item = static_cast<int>(args.seed % Kinds().size());
  report.Check(Replay(pool, item, nullptr).transcript == replays[item].transcript,
               pool[item].label + ": replayed RenderHistory() differs");
  report.Info("loop.replays", static_cast<double>(replays.size()));
  report.Info("loop.wall_s", wall_s);

  if (!args.trace) {
    std::vector<double> react_ms;
    double busy_s = 0;
    int steps = 0;
    for (const ReplayRecord& r : replays) {
      for (double s : r.react_s) react_ms.push_back(1e3 * s);
      busy_s += r.busy_s;
      steps += r.steps;
    }
    report.Info("loop.react_samples", static_cast<double>(react_ms.size()));
    report.Set("setup_s", Quantile(setup_s, 0.5));
    report.Set("latency_ms_p50", Quantile(react_ms, 0.5));
    report.Set("latency_ms_p90", Quantile(react_ms, 0.9));
    report.Set("throughput_per_s", steps / busy_s);
    report.Set("peak_rss_mb", PeakRssMb());
    return report;
  }

  ControlTrace trace;
  double traced_wall_s = 0;
  const std::vector<ReplayRecord> traced = RunLoop(
      pool, 0, static_cast<int>(replays.size() / Kinds().size()), &trace,
      &traced_wall_s);
  CheckReplays(pool, traced, &report);
  ReportLayers(traced, &report);
  ReportTraceCoverage(&report, trace.profiler, wall_s, traced_wall_s,
                      trace.dropped_events);
  EvaluatorCost evaluator;
  for (size_t i = 0; i < kFixedRounds * Kinds().size(); ++i) {
    evaluator.Measure(traced[i].snapshot, traced[i].assignment,
                      DeriveSeed(args.seed, 3, i));
  }
  evaluator.SetMetrics(&report);
  return report;
}

}  // namespace kairos::e2e
