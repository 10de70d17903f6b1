// Heterogeneous-fleet coverage: FleetSpec/EffectiveCapacity units, the
// identical-machines equivalence property (a FleetSpec of identical
// machines must reproduce the homogeneous path byte-for-byte for every
// built-in solver and thread count), the mixed-generation cost win the
// bench reports, per-class capacity in the ledger/migration planner, and
// the online controller's class-targeted drain.
#include "sim/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.h"
#include "core/evaluator.h"
#include "online/controller.h"
#include "online/telemetry.h"
#include "sim/capacity.h"
#include "solve/portfolio.h"
#include "solve/solver.h"
#include "trace/scenario.h"
#include "util/rng.h"
#include "util/units.h"

namespace kairos {
namespace {

monitor::WorkloadProfile MakeProfile(const std::string& name, double cpu_cores,
                                     double ram_gb, int samples = 6) {
  monitor::WorkloadProfile p;
  p.name = name;
  p.cpu_cores = util::TimeSeries::Constant(300, samples, cpu_cores);
  p.ram_bytes = util::TimeSeries::Constant(300, samples,
                                           ram_gb * static_cast<double>(util::kGiB));
  p.update_rows_per_sec = util::TimeSeries::Constant(300, samples, 0.0);
  p.working_set_bytes = ram_gb * 0.8 * static_cast<double>(util::kGiB);
  return p;
}

// ---------------------------------------------------------------------------
// FleetSpec / EffectiveCapacity units
// ---------------------------------------------------------------------------

TEST(FleetSpecTest, ClassLayoutAndBounds) {
  sim::FleetSpec fleet;
  fleet.AddClass(sim::MachineSpec::Server1(), 3, 0.5)
      .AddClass(sim::MachineSpec::ConsolidationTarget(), 2, 1.0);
  EXPECT_EQ(fleet.num_classes(), 2);
  EXPECT_EQ(fleet.TotalServers(), 5);
  EXPECT_EQ(fleet.ClassOf(0), 0);
  EXPECT_EQ(fleet.ClassOf(2), 0);
  EXPECT_EQ(fleet.ClassOf(3), 1);
  EXPECT_EQ(fleet.ClassOf(4), 1);
  EXPECT_EQ(fleet.ClassOf(7), 1);  // stranded index clamps to the last class
  EXPECT_EQ(fleet.ClassBegin(1), 3);
  EXPECT_EQ(fleet.ClassOfServers(5), (std::vector<int>{0, 0, 0, 1, 1}));
  EXPECT_FALSE(fleet.Uniform());
}

TEST(FleetSpecTest, UnboundedClassAbsorbsTail) {
  const sim::FleetSpec fleet =
      sim::FleetSpec::Homogeneous(sim::MachineSpec::ConsolidationTarget());
  EXPECT_EQ(fleet.TotalServers(), 0);  // unbounded
  EXPECT_EQ(fleet.ClassOf(0), 0);
  EXPECT_EQ(fleet.ClassOf(1000), 0);
  EXPECT_TRUE(fleet.Uniform());
}

TEST(FleetSpecTest, UniformityIgnoresSplitButNotWeightOrDrain) {
  const sim::MachineSpec spec = sim::MachineSpec::ConsolidationTarget();
  sim::FleetSpec split;
  split.AddClass(spec, 3, 1.0).AddClass(spec, 5, 1.0);
  EXPECT_TRUE(split.Uniform());  // identical machines, identical weight

  sim::FleetSpec weighted = split;
  weighted.classes[1].cost_weight = 2.0;
  EXPECT_FALSE(weighted.Uniform());

  sim::FleetSpec drained = split;
  drained.classes[0].drained = true;
  EXPECT_TRUE(drained.UniformMachines());
  EXPECT_FALSE(drained.Uniform());
  EXPECT_TRUE(drained.DrainedServer(0));
  EXPECT_FALSE(drained.DrainedServer(3));
}

TEST(FleetSpecTest, EffectiveCapacityMatchesSpecArithmetic) {
  const sim::MachineSpec spec = sim::MachineSpec::Server1();
  const sim::EffectiveCapacity cap = sim::EffectiveCapacity::Of(spec, 0.9, 0.95);
  EXPECT_EQ(cap.cpu_full_cores, spec.StandardCores());
  EXPECT_EQ(cap.ram_full_bytes, static_cast<double>(spec.ram_bytes));
  EXPECT_EQ(cap.cpu_cores, spec.StandardCores() * 0.9);
  EXPECT_EQ(cap.ram_bytes, static_cast<double>(spec.ram_bytes) * 0.95);
}

// ---------------------------------------------------------------------------
// Identical-machines equivalence property
// ---------------------------------------------------------------------------

/// A problem exercising replicas, pins, and anti-affinity. `fleet_split`
/// true builds the same server pool as two bounded classes of identical
/// machines; false is the classic homogeneous setup.
core::ConsolidationProblem EquivalenceProblem(bool fleet_split) {
  constexpr int kServers = 10;
  core::ConsolidationProblem prob;
  for (int i = 0; i < 8; ++i) {
    prob.workloads.push_back(MakeProfile("w" + std::to_string(i),
                                         0.5 + 0.2 * i, 4.0 + 1.0 * i));
  }
  prob.workloads[1].replicas = 2;
  prob.workloads[2].pinned_server = 1;
  prob.anti_affinity = {{3, 4}};
  const sim::MachineSpec target = sim::MachineSpec::ConsolidationTarget();
  if (fleet_split) {
    prob.fleet.classes.clear();
    prob.fleet.AddClass(target, 4, 1.0).AddClass(target, kServers - 4, 1.0);
  } else {
    prob.fleet = sim::FleetSpec::Homogeneous(target);
    prob.max_servers = kServers;
  }
  EXPECT_EQ(prob.ServerCap(), kServers);
  return prob;
}

solve::SolveBudget EquivalenceBudget() {
  solve::SolveBudget budget;
  budget.max_iterations = 6000;
  budget.direct_evaluations = 600;
  budget.probe_direct_evaluations = 200;
  budget.local_search_max_sweeps = 30;
  return budget;
}

TEST(FleetEquivalenceTest, EvaluatorBitIdenticalOnIdenticalMachines) {
  const core::ConsolidationProblem hom = EquivalenceProblem(false);
  const core::ConsolidationProblem fleet = EquivalenceProblem(true);
  core::Evaluator ev_hom(hom, hom.ServerCap());
  core::Evaluator ev_fleet(fleet, fleet.ServerCap());
  ASSERT_EQ(ev_hom.num_slots(), ev_fleet.num_slots());

  util::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int> assignment(ev_hom.num_slots());
    for (int& a : assignment) {
      a = static_cast<int>(rng.UniformInt(0, hom.ServerCap() - 1));
    }
    EXPECT_EQ(ev_hom.Evaluate(assignment), ev_fleet.Evaluate(assignment));
  }
}

TEST(FleetEquivalenceTest, EverySolverBitIdenticalOnIdenticalMachines) {
  const core::ConsolidationProblem hom = EquivalenceProblem(false);
  const core::ConsolidationProblem fleet = EquivalenceProblem(true);
  const solve::SolveBudget budget = EquivalenceBudget();

  for (const std::string& name : solve::SolverNames()) {
    auto solver_hom = solve::CreateSolver(name, 11);
    auto solver_fleet = solve::CreateSolver(name, 11);
    ASSERT_NE(solver_hom, nullptr) << name;
    const core::ConsolidationPlan plan_hom =
        solver_hom->Solve(hom, budget);
    const core::ConsolidationPlan plan_fleet =
        solver_fleet->Solve(fleet, budget);
    EXPECT_EQ(plan_hom.assignment.server_of_slot,
              plan_fleet.assignment.server_of_slot)
        << name;
    EXPECT_EQ(plan_hom.objective, plan_fleet.objective) << name;
    EXPECT_EQ(plan_hom.feasible, plan_fleet.feasible) << name;
  }
}

TEST(FleetEquivalenceTest, PortfolioBitIdenticalAcrossThreadCounts) {
  const core::ConsolidationProblem hom = EquivalenceProblem(false);
  const core::ConsolidationProblem fleet = EquivalenceProblem(true);

  std::vector<solve::PortfolioSolverSpec> specs;
  uint64_t seed = 5;
  for (const std::string& name : solve::SolverNames()) {
    specs.push_back({name, seed});
    seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  }

  std::vector<int> reference;
  for (int threads : {1, 2, 4}) {
    solve::PortfolioOptions options;
    options.threads = threads;
    options.budget = EquivalenceBudget();
    const solve::PortfolioResult r_hom =
        solve::PortfolioRunner(options).Run(hom, specs);
    const solve::PortfolioResult r_fleet =
        solve::PortfolioRunner(options).Run(fleet, specs);
    ASSERT_GE(r_hom.winner_index, 0);
    EXPECT_EQ(r_hom.best.assignment.server_of_slot,
              r_fleet.best.assignment.server_of_slot)
        << threads << " threads";
    EXPECT_EQ(r_hom.best.objective, r_fleet.best.objective);
    EXPECT_EQ(r_hom.winner, r_fleet.winner);
    if (reference.empty()) {
      reference = r_hom.best.assignment.server_of_slot;
    } else {
      EXPECT_EQ(r_hom.best.assignment.server_of_slot, reference)
          << threads << " threads vs 1";
    }
  }
}

// ---------------------------------------------------------------------------
// Heterogeneous behaviour
// ---------------------------------------------------------------------------

TEST(FleetHeterogeneousTest, EvaluatorPricesClassesDifferently) {
  // One big workload: a 60 GB footprint overloads a Server1 (32 GB) but
  // fits the 96 GB target; the per-server capacities must come from the
  // slot's own server class.
  core::ConsolidationProblem prob;
  prob.workloads.push_back(MakeProfile("big", 1.0, 60.0));
  prob.fleet.classes.clear();
  prob.fleet.AddClass(sim::MachineSpec::Server1(), 1, 0.5)
      .AddClass(sim::MachineSpec::ConsolidationTarget(), 1, 1.0);

  core::Evaluator ev(prob, prob.ServerCap());
  ev.Load({0});  // on the legacy box
  EXPECT_FALSE(ev.IsFeasible());
  ev.Load({1});  // on the big target
  EXPECT_TRUE(ev.IsFeasible());
  EXPECT_EQ(ev.ClassOfServer(0), 0);
  EXPECT_EQ(ev.ClassOfServer(1), 1);
  EXPECT_LT(ev.cpu_capacity(0), ev.cpu_capacity(1));

  // At equal feasibility, the cheaper class wins the objective.
  core::ConsolidationProblem small_prob;
  small_prob.workloads.push_back(MakeProfile("small", 0.3, 2.0));
  small_prob.fleet = prob.fleet;
  core::Evaluator ev2(small_prob, small_prob.ServerCap());
  EXPECT_LT(ev2.Evaluate({0}), ev2.Evaluate({1}));
}

TEST(FleetHeterogeneousTest, MixedFleetStrictlyCheaperThanWeakestOnly) {
  // The acceptance check behind bench_fleet_consolidation: on the
  // mixed-generation scenario the class-aware solve beats the same
  // workloads forced onto the weakest class, in fleet cost.
  trace::ScenarioConfig config;
  config.steps = 16;
  config.seed = 3;
  const trace::FleetScenario scenario = trace::MakeFleetScenario(
      trace::FleetScenarioKind::kMixedGeneration, config);

  std::vector<solve::PortfolioSolverSpec> specs;
  uint64_t seed = 17;
  for (const std::string& name : solve::SolverNames()) {
    specs.push_back({name, seed});
    seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  }
  solve::PortfolioOptions options;
  options.budget = EquivalenceBudget();

  core::ConsolidationProblem mixed;
  mixed.workloads = scenario.profiles;
  mixed.fleet = scenario.fleet;
  const solve::PortfolioResult mixed_result =
      solve::PortfolioRunner(options).Run(mixed, specs);

  core::ConsolidationProblem forced;
  forced.workloads = scenario.profiles;
  const sim::MachineClass& weak = scenario.fleet.classes[scenario.weakest_class];
  forced.fleet = sim::FleetSpec::Homogeneous(weak.spec, weak.cost_weight);
  const solve::PortfolioResult forced_result =
      solve::PortfolioRunner(options).Run(forced, specs);

  ASSERT_TRUE(mixed_result.best.feasible);
  ASSERT_TRUE(forced_result.best.feasible);
  EXPECT_LT(mixed_result.best.fleet_cost, forced_result.best.fleet_cost);
  // The win comes from actually using the stronger class.
  ASSERT_EQ(mixed_result.best.class_servers_used.size(), 2u);
  EXPECT_GT(mixed_result.best.class_servers_used[1], 0);
}

TEST(FleetHeterogeneousTest, EngineKeepsGreedyBaselineWhenPrefixProbingMisses) {
  // The bounded-K search probes the declaration-order prefix of the fleet,
  // so with the cheaper big class declared *after* a sea of small boxes it
  // can only find all-small plans; the engine must fall back to its own
  // class-aware greedy baseline (one big box) instead of returning a fleet
  // an order of magnitude dearer.
  sim::MachineSpec small;
  small.name = "small4c16g";
  small.cores = 4;
  small.ram_bytes = 16 * util::kGiB;
  sim::MachineSpec big;
  big.name = "big24c192g";
  big.cores = 24;
  big.ram_bytes = 192 * util::kGiB;

  core::ConsolidationProblem prob;
  for (int i = 0; i < 8; ++i) {
    // 10 GB each: one per small box (15 GB usable), all eight on one big.
    prob.workloads.push_back(MakeProfile("w" + std::to_string(i), 0.5, 10.0, 4));
  }
  prob.fleet.classes.clear();
  prob.fleet.AddClass(small, 20, 1.0).AddClass(big, 2, 0.9);

  const core::ConsolidationPlan plan =
      core::ConsolidationEngine(prob, core::EngineOptions{}).Solve();
  ASSERT_TRUE(plan.feasible);
  EXPECT_LE(plan.fleet_cost, 0.9 + 1e-9)
      << "engine returned " << plan.servers_used
      << " servers at fleet cost " << plan.fleet_cost;
}

TEST(FleetHeterogeneousTest, CapacityLedgerUsesPerServerCapacity) {
  sim::FleetSpec fleet;
  fleet.AddClass(sim::MachineSpec::Server1(), 1, 1.0)        // 32 GB
      .AddClass(sim::MachineSpec::ConsolidationTarget(), 1, 1.0);  // 96 GB
  sim::CapacityLedger ledger(fleet, 2, 4, 0.9, 0.95, 0.0);

  const std::vector<double> cpu(4, 0.5);
  const std::vector<double> ram(4, 60.0 * static_cast<double>(util::kGiB));
  const std::vector<double> no_rate(4, 0.0);
  // 60 GB exceeds Server1's 32 GB and fits the 96 GB target.
  EXPECT_FALSE(ledger.CanAdd(0, cpu, ram, no_rate, 0.0));
  EXPECT_TRUE(ledger.CanAdd(1, cpu, ram, no_rate, 0.0));
}

TEST(FleetHeterogeneousTest, MigrationSpillCheckRespectsClassCapacity) {
  // Two 40 GB workloads on the big box must move to the two legacy boxes
  // (one each). A plan landing both on one 32 GB legacy box would spill;
  // the planner must stage one move per target without ever co-locating.
  core::ConsolidationProblem prob;
  prob.workloads = {MakeProfile("a", 0.5, 20.0, 4), MakeProfile("b", 0.5, 20.0, 4)};
  prob.fleet.classes.clear();
  prob.fleet.AddClass(sim::MachineSpec::Server1(), 2, 0.5)
      .AddClass(sim::MachineSpec::ConsolidationTarget(), 1, 1.0);

  const online::MigrationPlan plan =
      online::MigrationPlanner().Plan(prob, {2, 2}, {0, 1});
  EXPECT_TRUE(plan.safe);
  EXPECT_EQ(plan.total_moves(), 2);
}

// ---------------------------------------------------------------------------
// Online class drain
// ---------------------------------------------------------------------------

TEST(FleetDrainTest, GenerationUpgradeEvacuatesLegacyClass) {
  trace::ScenarioConfig config;
  config.steps = 32;
  config.seed = 11;
  const trace::FleetScenario scenario = trace::MakeFleetScenario(
      trace::FleetScenarioKind::kGenerationUpgrade, config);
  ASSERT_GE(scenario.drain_step, 0);

  online::ControllerConfig controller_config;
  controller_config.base.workloads = scenario.profiles;
  controller_config.base.fleet = scenario.fleet;
  controller_config.seed = 11;
  online::ConsolidationController controller(controller_config);

  online::ReplayFeed feed = online::ReplayFeed::FromProfiles(scenario.profiles);
  std::vector<online::TelemetrySample> samples;
  int step = 0;
  bool drained = false;
  int on_legacy_before_drain = -1;
  while (feed.Next(&samples)) {
    if (step == scenario.drain_step) {
      on_legacy_before_drain = 0;
      for (int s : controller.assignment()) {
        if (scenario.fleet.ClassOf(s) == scenario.drain_class) {
          ++on_legacy_before_drain;
        }
      }
      drained = controller.DrainClass(scenario.drain_class);
    }
    controller.Ingest(samples);
    ++step;
  }

  ASSERT_TRUE(drained);
  // The amortized legacy class genuinely hosted the plan before the drain…
  EXPECT_GT(on_legacy_before_drain, 0);
  // …and is empty afterwards.
  for (int s : controller.assignment()) {
    EXPECT_NE(scenario.fleet.ClassOf(s), scenario.drain_class)
        << "slot still on drained class (server " << s << ")";
  }
  bool saw_drain_event = false;
  for (const auto& e : controller.history()) {
    if (e.reason.rfind("class-drain:", 0) == 0) {
      saw_drain_event = true;
      EXPECT_GT(e.moves, 0);
    }
  }
  EXPECT_TRUE(saw_drain_event);

  // A heterogeneous fleet refuses the homogeneous relabel-based drain.
  EXPECT_FALSE(controller.DrainHighestServer());
  // Redundant or fleet-emptying drains are refused.
  EXPECT_FALSE(controller.DrainClass(scenario.drain_class));
  EXPECT_FALSE(controller.DrainClass(1));  // would leave nothing usable
  EXPECT_FALSE(controller.DrainClass(99));
}

TEST(FleetDrainTest, DrainRefusedWhenPinTargetsClass) {
  trace::ScenarioConfig config;
  config.steps = 16;
  config.seed = 11;
  const trace::FleetScenario scenario = trace::MakeFleetScenario(
      trace::FleetScenarioKind::kGenerationUpgrade, config);

  online::ControllerConfig controller_config;
  controller_config.base.workloads = scenario.profiles;
  controller_config.base.fleet = scenario.fleet;
  controller_config.base.workloads[0].pinned_server = 0;  // a legacy server
  controller_config.seed = 11;
  online::ConsolidationController controller(controller_config);
  EXPECT_FALSE(controller.DrainClass(0));
}

TEST(FleetDrainTest, HeterogeneousControllerHistoryDeterministic) {
  trace::ScenarioConfig config;
  config.steps = 24;
  config.seed = 19;
  const trace::FleetScenario scenario = trace::MakeFleetScenario(
      trace::FleetScenarioKind::kMixedGeneration, config);

  auto run = [&](int threads) {
    online::ControllerConfig controller_config;
    controller_config.base.workloads = scenario.profiles;
    controller_config.base.fleet = scenario.fleet;
    controller_config.seed = 19;
    controller_config.threads = threads;
    online::ConsolidationController controller(controller_config);
    online::ReplayFeed feed = online::ReplayFeed::FromProfiles(scenario.profiles);
    controller.RunToEnd(&feed);
    return controller.RenderHistory();
  };

  const std::string one = run(1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, run(4));
}

}  // namespace
}  // namespace kairos
