#include "online/controller.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/evaluator.h"
#include "online/drift.h"
#include "online/migration.h"
#include "online/telemetry.h"
#include "sim/capacity.h"
#include "solve/solver.h"
#include "tests/oracle/scalar_estimators.h"
#include "trace/scenario.h"
#include "util/rng.h"
#include "util/units.h"

namespace kairos::online {
namespace {

// ---------------------------------------------------------------------------
// Streaming estimators
// ---------------------------------------------------------------------------

TEST(EstimatorsTest, RollingWindowKeepsLastW) {
  oracle::RollingWindow window(3, 1.0);
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) window.Push(v);
  EXPECT_TRUE(window.full());
  EXPECT_DOUBLE_EQ(window.Mean(), 4.0);
  EXPECT_DOUBLE_EQ(window.Max(), 5.0);
  const util::TimeSeries series = window.ToSeries();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series.at(0), 3.0);
  EXPECT_DOUBLE_EQ(series.at(2), 5.0);
}

TEST(EstimatorsTest, DecayingMaxFollowsAndForgets) {
  oracle::DecayingMax ws(0.9);
  ws.Push(100.0);
  EXPECT_DOUBLE_EQ(ws.value(), 100.0);
  ws.Push(10.0);  // decays rather than drops
  EXPECT_DOUBLE_EQ(ws.value(), 90.0);
  ws.Push(200.0);  // rises immediately
  EXPECT_DOUBLE_EQ(ws.value(), 200.0);
}

TEST(EstimatorsTest, StreamingProfileBuilderWindowsAndStats) {
  StreamingProfileBuilder builder(2, 4, 300.0);
  for (int t = 0; t < 10; ++t) {
    builder.Ingest({{1.0 + t, 8e9, 5.0, 6e9}, {0.5, 4e9, 1.0, 3e9}});
  }
  const monitor::WorkloadProfile p0 = builder.Profile(0);
  ASSERT_EQ(p0.cpu_cores.size(), 4u);  // last W samples only
  EXPECT_DOUBLE_EQ(p0.cpu_cores.at(3), 10.0);
  EXPECT_GT(p0.working_set_bytes, 0);
  const monitor::ProfileStats stats = builder.Stats(0);
  EXPECT_DOUBLE_EQ(stats.peak_cpu_cores, 10.0);
  EXPECT_DOUBLE_EQ(stats.mean_cpu_cores, (7.0 + 8.0 + 9.0 + 10.0) / 4.0);
  // Rank 0.95 * 3 = 2.85 over {7, 8, 9, 10}: 9 * 0.15 + 10 * 0.85.
  EXPECT_DOUBLE_EQ(stats.p95_cpu_cores, 9.85);
}

// ---------------------------------------------------------------------------
// Telemetry feeds
// ---------------------------------------------------------------------------

TEST(TelemetryTest, ReplayFeedStepsThroughProfiles) {
  monitor::WorkloadProfile p;
  p.name = "a";
  p.cpu_cores = util::TimeSeries(300, {1.0, 2.0, 3.0});
  p.ram_bytes = util::TimeSeries(300, {10.0, 20.0, 30.0});
  p.update_rows_per_sec = util::TimeSeries(300, {0.0, 0.0, 0.0});
  p.working_set_bytes = 5.0;

  ReplayFeed feed = ReplayFeed::FromProfiles({p});
  EXPECT_EQ(feed.num_workloads(), 1);
  EXPECT_EQ(feed.workload_name(0), "a");
  EXPECT_EQ(feed.steps_total(), 3);

  std::vector<TelemetrySample> samples;
  ASSERT_TRUE(feed.Next(&samples));
  EXPECT_DOUBLE_EQ(samples[0].cpu_cores, 1.0);
  ASSERT_TRUE(feed.Next(&samples));
  ASSERT_TRUE(feed.Next(&samples));
  EXPECT_DOUBLE_EQ(samples[0].ram_bytes, 30.0);
  EXPECT_FALSE(feed.Next(&samples));
}

// ---------------------------------------------------------------------------
// Drift detection
// ---------------------------------------------------------------------------

monitor::ProfileStats StatsWithCpu(double p95_cpu) {
  monitor::ProfileStats s;
  s.p95_cpu_cores = p95_cpu;
  s.p95_ram_bytes = 8e9;
  return s;
}

/// The drift decision at `step` with every stream scanned as one stripe.
DriftDecision ScanAll(const DriftDetector& detector, int step,
                      const std::vector<monitor::ProfileStats>& current) {
  if (!detector.ScanEnabled(step, current.size())) return {};
  return detector.Decide(
      detector.ScanRange(current, 0, static_cast<int>(current.size())),
      /*drifted_shards=*/1);
}

TEST(DriftTest, FiresOnRelativeDeviationAfterCooldown) {
  DriftConfig config;
  config.cooldown_steps = 4;
  DriftDetector detector(config);
  detector.Rebase(0, {StatsWithCpu(1.0)});

  // Within cooldown: even big drift is ignored.
  EXPECT_FALSE(ScanAll(detector, 2, {StatsWithCpu(3.0)}).resolve);
  // After cooldown: small deviation no, large deviation yes.
  EXPECT_FALSE(ScanAll(detector, 10, {StatsWithCpu(1.1)}).resolve);
  const DriftDecision d = ScanAll(detector, 10, {StatsWithCpu(2.0)});
  EXPECT_TRUE(d.resolve);
  EXPECT_EQ(d.reason, "drift:w0");
}

TEST(DriftTest, AbsoluteFloorSuppressesIdleFlapping) {
  DriftConfig config;
  config.cooldown_steps = 0;
  DriftDetector detector(config);
  // 0.01 -> 0.05 cores is 5x relative but far below the absolute floor.
  detector.Rebase(0, {StatsWithCpu(0.01)});
  EXPECT_FALSE(ScanAll(detector, 10, {StatsWithCpu(0.05)}).resolve);
}

// ---------------------------------------------------------------------------
// Migration planning
// ---------------------------------------------------------------------------

monitor::WorkloadProfile BigRamProfile(const std::string& name, double ram_gb) {
  monitor::WorkloadProfile p;
  p.name = name;
  p.cpu_cores = util::TimeSeries::Constant(300, 4, 0.5);
  p.ram_bytes = util::TimeSeries::Constant(
      300, 4, ram_gb * static_cast<double>(util::kGiB));
  p.update_rows_per_sec = util::TimeSeries::Constant(300, 4, 0.0);
  p.working_set_bytes = ram_gb * 0.8 * static_cast<double>(util::kGiB);
  return p;
}

TEST(MigrationTest, SwapDeadlockBouncesThroughSpareServer) {
  // Two 50 GB workloads must swap servers; 96 GB machines cannot hold both
  // at once, so the planner must detour one through the spare third server.
  core::ConsolidationProblem prob;
  prob.workloads = {BigRamProfile("a", 50.0), BigRamProfile("b", 50.0)};
  prob.max_servers = 3;

  const MigrationPlan plan = MigrationPlanner().Plan(prob, {0, 1}, {1, 0});
  EXPECT_TRUE(plan.safe);
  EXPECT_EQ(plan.total_moves(), 3);  // bounce + two direct moves
  bool saw_bounce = false;
  for (const auto& stage : plan.stages) {
    for (const auto& m : stage.moves) saw_bounce = saw_bounce || m.bounce;
  }
  EXPECT_TRUE(saw_bounce);

  // Replaying the moves in order never exceeds capacity and lands on the
  // target placement.
  sim::CapacityLedger ledger(prob.fleet, 3, 4, prob.cpu_headroom,
                             prob.ram_headroom,
                             static_cast<double>(prob.instance_ram_overhead_bytes));
  const std::vector<double> no_rate(4, 0.0);
  std::vector<int> state = {0, 1};
  for (int s = 0; s < 2; ++s) {
    ledger.Add(state[s], prob.workloads[s].cpu_cores.values(),
               prob.workloads[s].ram_bytes.values(), no_rate, 0.0);
  }
  for (const auto& stage : plan.stages) {
    for (const auto& m : stage.moves) {
      EXPECT_EQ(m.from, state[m.slot]);
      EXPECT_TRUE(ledger.CanAdd(m.to, prob.workloads[m.slot].cpu_cores.values(),
                                prob.workloads[m.slot].ram_bytes.values(),
                                no_rate, 0.0));
      ledger.Add(m.to, prob.workloads[m.slot].cpu_cores.values(),
                 prob.workloads[m.slot].ram_bytes.values(), no_rate, 0.0);
      ledger.Remove(m.from, prob.workloads[m.slot].cpu_cores.values(),
                    prob.workloads[m.slot].ram_bytes.values(), no_rate, 0.0);
      state[m.slot] = m.to;
    }
  }
  EXPECT_EQ(state, (std::vector<int>{1, 0}));
}

TEST(MigrationTest, ForcedStageFlaggedUnsafeWithoutSpareRoom) {
  // Same swap with only the two servers: no bounce target exists, so the
  // moves are forced and the plan flagged unsafe.
  core::ConsolidationProblem prob;
  prob.workloads = {BigRamProfile("a", 50.0), BigRamProfile("b", 50.0)};
  prob.max_servers = 2;
  const MigrationPlan plan = MigrationPlanner().Plan(prob, {0, 1}, {1, 0});
  EXPECT_FALSE(plan.safe);
  EXPECT_EQ(plan.total_moves(), 2);
}

TEST(MigrationTest, ReplicaSwapNeverCoLocatesAntiAffineSlots) {
  // Two replicas of one workload swap servers. Capacity allows a direct
  // move, but landing on the sibling's server — even transiently — would
  // break replica anti-affinity, so the planner must detour via server 2.
  core::ConsolidationProblem prob;
  prob.workloads = {BigRamProfile("r", 4.0)};
  prob.workloads[0].replicas = 2;
  prob.max_servers = 3;

  const MigrationPlan plan = MigrationPlanner().Plan(prob, {0, 1}, {1, 0});
  EXPECT_TRUE(plan.safe);
  std::vector<int> state = {0, 1};
  for (const auto& stage : plan.stages) {
    for (const auto& m : stage.moves) {
      state[m.slot] = m.to;
      EXPECT_NE(state[0], state[1]) << "replicas co-located mid-migration";
    }
  }
  EXPECT_EQ(state, (std::vector<int>{1, 0}));
}

TEST(MigrationTest, IdentityPlacementNeedsNoMoves) {
  core::ConsolidationProblem prob;
  prob.workloads = {BigRamProfile("a", 10.0), BigRamProfile("b", 10.0)};
  prob.max_servers = 2;
  const MigrationPlan plan = MigrationPlanner().Plan(prob, {0, 1}, {0, 1});
  EXPECT_TRUE(plan.safe);
  EXPECT_EQ(plan.total_moves(), 0);
  EXPECT_TRUE(plan.stages.empty());
}

// ---------------------------------------------------------------------------
// Warm-started solving
// ---------------------------------------------------------------------------

TEST(WarmStartTest, ValidSeedAssignmentChecksShapeAndRange) {
  core::ConsolidationProblem prob;
  prob.workloads = {BigRamProfile("a", 4.0), BigRamProfile("b", 4.0)};
  EXPECT_TRUE(solve::ValidSeedAssignment(prob, 2, {0, 1}));
  EXPECT_FALSE(solve::ValidSeedAssignment(prob, 2, {0}));       // wrong size
  EXPECT_FALSE(solve::ValidSeedAssignment(prob, 2, {0, 2}));    // out of cap
  EXPECT_FALSE(solve::ValidSeedAssignment(prob, 2, {-1, 0}));
  EXPECT_FALSE(solve::ValidSeedAssignment(prob, 2, {}));
}

TEST(WarmStartTest, StartAssignmentPrefersCheaperIncumbent) {
  // With a strong migration penalty toward the incumbent spread placement,
  // the warm seed beats the greedy one-server packing.
  core::ConsolidationProblem prob;
  for (int i = 0; i < 4; ++i) prob.workloads.push_back(BigRamProfile("w", 4.0));
  prob.max_servers = 2;
  prob.current_assignment = {1, 1, 0, 0};
  // Greedy packs everything onto server 0, moving slots 0 and 1 off their
  // incumbent: dearer than the extra server the incumbent keeps.
  prob.migration_cost_weight = 600.0;

  solve::SolveBudget budget;
  budget.seed_assignment = {1, 1, 0, 0};
  const core::Assignment start = solve::StartAssignment(prob, 2, budget);
  EXPECT_EQ(start.server_of_slot, budget.seed_assignment);

  // An invalid seed falls back to greedy regardless.
  budget.seed_assignment = {5, 5, 5, 5};
  const core::Assignment fallback = solve::StartAssignment(prob, 2, budget);
  for (int s : fallback.server_of_slot) EXPECT_LT(s, 2);
}

TEST(WarmStartTest, PolishSolverRegisteredAndEnumerable) {
  const std::vector<std::string> names = solve::SolverNames();
  for (const char* expected :
       {"anneal", "engine", "greedy", "greedy-multi", "polish", "tabu"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  auto polish = solve::CreateSolver("polish", 3);
  ASSERT_NE(polish, nullptr);
  EXPECT_EQ(polish->name(), "polish");
}

// ---------------------------------------------------------------------------
// The controller end to end
// ---------------------------------------------------------------------------

trace::ScenarioTelemetry DiurnalScenario() {
  trace::ScenarioConfig config;
  config.steps = 64;
  config.seed = 11;
  return trace::MakeScenario(trace::ScenarioKind::kDiurnal, config);
}

ControllerConfig MakeControllerConfig(const trace::ScenarioTelemetry& scenario,
                                      bool migration_aware) {
  ControllerConfig config;
  config.base.workloads = scenario.profiles;
  config.num_servers = 4;
  config.migration_aware = migration_aware;
  config.seed = 11;
  return config;
}

std::string RunScenarioHistory(const trace::ScenarioTelemetry& scenario,
                               ControllerConfig config) {
  ConsolidationController controller(config);
  ReplayFeed feed = ReplayFeed::FromProfiles(scenario.profiles);
  controller.RunToEnd(&feed);
  return controller.RenderHistory();
}

TEST(ControllerTest, ByteIdenticalHistoryAcrossRunsAndThreadCounts) {
  const trace::ScenarioTelemetry scenario = DiurnalScenario();
  ControllerConfig config = MakeControllerConfig(scenario, true);

  config.threads = 1;
  const std::string one_thread = RunScenarioHistory(scenario, config);
  config.threads = 4;
  const std::string four_threads = RunScenarioHistory(scenario, config);
  const std::string four_again = RunScenarioHistory(scenario, config);

  EXPECT_FALSE(one_thread.empty());
  EXPECT_GT(std::count(one_thread.begin(), one_thread.end(), '\n'), 2);
  EXPECT_EQ(one_thread, four_threads);
  EXPECT_EQ(four_threads, four_again);
}

TEST(ControllerTest, MigrationAwareUsesFewerMovesThanColdOnDiurnal) {
  const trace::ScenarioTelemetry scenario = DiurnalScenario();

  ConsolidationController aware(MakeControllerConfig(scenario, true));
  ConsolidationController cold(MakeControllerConfig(scenario, false));
  ReplayFeed aware_feed = ReplayFeed::FromProfiles(scenario.profiles);
  ReplayFeed cold_feed = ReplayFeed::FromProfiles(scenario.profiles);
  aware.RunToEnd(&aware_feed);
  cold.RunToEnd(&cold_feed);

  // Measurably fewer migrations: at least 2x fewer.
  EXPECT_GT(cold.total_moves(), 0);
  EXPECT_LE(2 * aware.total_moves(), cold.total_moves())
      << "aware " << aware.total_moves() << " vs cold " << cold.total_moves();

  // At an equal-or-better final placement. The objective counts kServerCost
  // (1000) per server plus a per-server balance tail in [1, e]; "equal" is
  // asserted at sub-balance-tail granularity: the same consolidation level,
  // and an objective within one balance unit (0.05% here) of cold's.
  EXPECT_EQ(core::Assignment{aware.assignment()}.ServersUsed(),
            core::Assignment{cold.assignment()}.ServersUsed());
  const double aware_objective = aware.CurrentServiceObjective();
  const double cold_objective = cold.CurrentServiceObjective();
  EXPECT_LE(aware_objective, cold_objective + 1.0);

  // Every staged migration respected the spill check.
  for (const auto& e : aware.history()) EXPECT_TRUE(e.migration_safe);
}

TEST(ControllerTest, ConstraintsSurviveWarmStartedResolves) {
  trace::ScenarioTelemetry scenario = DiurnalScenario();
  ControllerConfig config = MakeControllerConfig(scenario, true);
  // w0/w1 must never share a server; w2 is pinned to server 0; w3 runs two
  // replicas on distinct servers.
  config.base.anti_affinity = {{0, 1}};
  config.base.workloads[2].pinned_server = 0;
  config.base.workloads[3].replicas = 2;

  ConsolidationController controller(config);
  ReplayFeed feed = ReplayFeed::FromProfiles(scenario.profiles);
  controller.RunToEnd(&feed);

  ASSERT_GT(controller.history().size(), 2u);
  // Slot layout: w0->0, w1->1, w2->2, w3->{3,4}, w4->5, ...
  for (const auto& e : controller.history()) {
    ASSERT_EQ(e.plan.size(), scenario.profiles.size() + 1);
    EXPECT_NE(e.plan[0], e.plan[1]) << "anti-affinity at step " << e.step;
    EXPECT_EQ(e.plan[2], 0) << "pin at step " << e.step;
    EXPECT_NE(e.plan[3], e.plan[4]) << "replicas at step " << e.step;
  }
}

TEST(ControllerTest, NodeDrainEvacuatesAndShrinksFleet) {
  trace::ScenarioConfig scenario_config;
  scenario_config.steps = 48;
  scenario_config.seed = 11;
  const trace::ScenarioTelemetry scenario =
      trace::MakeScenario(trace::ScenarioKind::kNodeDrain, scenario_config);

  ConsolidationController controller(MakeControllerConfig(scenario, true));
  ReplayFeed feed = ReplayFeed::FromProfiles(scenario.profiles);
  std::vector<TelemetrySample> samples;
  int step = 0;
  while (feed.Next(&samples)) {
    if (step == scenario.drain_step) controller.DrainHighestServer();
    controller.Ingest(samples);
    ++step;
  }

  EXPECT_EQ(controller.active_servers(), 3);
  bool drained = false;
  for (const auto& e : controller.history()) {
    if (e.reason == "node-drain") {
      drained = true;
      EXPECT_GT(e.moves, 0);  // the drained server's slots were evacuated
    }
  }
  EXPECT_TRUE(drained);
  for (int s : controller.assignment()) EXPECT_LT(s, 3);
}

TEST(ControllerTest, DrainRefusedWhenPinTargetsAffectedServer) {
  trace::ScenarioConfig scenario_config;
  scenario_config.steps = 16;
  scenario_config.seed = 11;
  const trace::ScenarioTelemetry scenario =
      trace::MakeScenario(trace::ScenarioKind::kStable, scenario_config);

  ControllerConfig config = MakeControllerConfig(scenario, true);
  config.base.workloads[0].pinned_server = 0;  // stable packs onto server 0
  ConsolidationController controller(config);
  ReplayFeed feed = ReplayFeed::FromProfiles(scenario.profiles);
  controller.RunToEnd(&feed);
  ASSERT_FALSE(controller.assignment().empty());

  EXPECT_FALSE(controller.DrainHighestServer());
  EXPECT_EQ(controller.active_servers(), 4);  // fleet unchanged
  EXPECT_NE(controller.last_drain_refusal().find("pinned"), std::string::npos)
      << controller.last_drain_refusal();
}

TEST(ControllerTest, DrainRefusalPointsAtDrainClassOnHeterogeneousFleet) {
  trace::ScenarioConfig scenario_config;
  scenario_config.steps = 8;
  scenario_config.seed = 11;
  const trace::ScenarioTelemetry scenario =
      trace::MakeScenario(trace::ScenarioKind::kStable, scenario_config);

  ControllerConfig config = MakeControllerConfig(scenario, true);
  config.base.fleet = sim::FleetSpec();
  config.base.fleet.AddClass(sim::MachineSpec::Server1(), 2, 1.0)
      .AddClass(sim::MachineSpec::ConsolidationTarget(), 2, 1.5);
  ConsolidationController controller(config);

  EXPECT_FALSE(controller.DrainHighestServer());
  // The refusal explains itself: it names the class mix and the operation
  // that *does* apply to a mixed-generation fleet.
  const std::string& why = controller.last_drain_refusal();
  EXPECT_NE(why.find("not uniform"), std::string::npos) << why;
  EXPECT_NE(why.find("DrainClass"), std::string::npos) << why;
  EXPECT_NE(why.find(config.base.fleet.Render()), std::string::npos) << why;
  EXPECT_EQ(controller.active_servers(), 4);  // fleet unchanged
}

TEST(ControllerTest, StableTrafficNeverResolvesAfterBootstrap) {
  trace::ScenarioConfig scenario_config;
  scenario_config.steps = 48;
  scenario_config.seed = 11;
  const trace::ScenarioTelemetry scenario =
      trace::MakeScenario(trace::ScenarioKind::kStable, scenario_config);

  ConsolidationController controller(MakeControllerConfig(scenario, true));
  ReplayFeed feed = ReplayFeed::FromProfiles(scenario.profiles);
  controller.RunToEnd(&feed);

  ASSERT_EQ(controller.history().size(), 1u);
  EXPECT_EQ(controller.history()[0].reason, "bootstrap");
  EXPECT_EQ(controller.total_moves(), 0);
}

/// Three workloads at 1 core each, 4 GiB RAM and a 2 GiB working set;
/// workload 0 runs at `cpu0` cores.
std::vector<TelemetrySample> ThreeWorkloadStep(double cpu0) {
  const double gib = static_cast<double>(util::kGiB);
  std::vector<TelemetrySample> step(3, {1.0, 4.0 * gib, 0.0, 2.0 * gib});
  step[0].cpu_cores = cpu0;
  return step;
}

ControllerConfig ThreeWorkloadConfig() {
  ControllerConfig config;
  for (int w = 0; w < 3; ++w) {
    monitor::WorkloadProfile p;
    p.name = "w" + std::to_string(w);
    config.base.workloads.push_back(p);
  }
  config.num_servers = 3;
  config.control_interval = 1;
  config.seed = 11;
  return config;
}

TEST(ControllerTest, ViolationForecastBypassesDriftCooldown) {
  ControllerConfig config = ThreeWorkloadConfig();
  config.drift.cooldown_steps = 100;
  ConsolidationController controller(config);
  for (int t = 0; t < config.warmup_samples; ++t) {
    ASSERT_TRUE(controller.Ingest(ThreeWorkloadStep(1.0)));
  }
  ASSERT_EQ(controller.history().size(), 1u);
  // Premise: 3 cores of demand share one server (10.8 usable cores).
  const std::vector<int> plan = controller.assignment();
  ASSERT_EQ(plan, std::vector<int>(3, plan[0]));

  // 9 + 1 + 1 cores overload the shared server, though workload 0 alone
  // still fits on one. The drift scan is deep inside its cooldown, so only
  // the violation forecast can trigger this re-solve.
  ASSERT_TRUE(controller.Ingest(ThreeWorkloadStep(9.0)));
  ASSERT_EQ(controller.history().size(), 2u);
  EXPECT_EQ(controller.history()[1].reason, "violation-forecast");
  EXPECT_EQ(controller.history()[1].step, config.warmup_samples);
}

TEST(ControllerTest, MismatchedStepIsRefusedWithoutSideEffects) {
  const ControllerConfig config = ThreeWorkloadConfig();
  ConsolidationController clean(config);
  ConsolidationController refused(config);
  for (int t = 0; t < 2 * config.warmup_samples; ++t) {
    const double cpu0 = t < config.warmup_samples ? 1.0 : 2.0 + 0.5 * t;
    if (t == config.warmup_samples - 1) {
      // One sample short, on the step that would bootstrap.
      std::vector<TelemetrySample> short_step = ThreeWorkloadStep(cpu0);
      short_step.pop_back();
      EXPECT_FALSE(refused.Ingest(short_step));
      EXPECT_EQ(refused.steps_ingested(), clean.steps_ingested());
      EXPECT_TRUE(refused.history().empty());
    }
    ASSERT_TRUE(clean.Ingest(ThreeWorkloadStep(cpu0)));
    ASSERT_TRUE(refused.Ingest(ThreeWorkloadStep(cpu0)));
  }
  EXPECT_EQ(refused.steps_ingested(), clean.steps_ingested());
  EXPECT_FALSE(clean.RenderHistory().empty());
  EXPECT_EQ(refused.RenderHistory(), clean.RenderHistory());
}

}  // namespace
}  // namespace kairos::online
