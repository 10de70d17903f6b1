// Resource-axis layer integration coverage: (a) the legacy shared disk
// model and per-class disk models resolving to the same model are
// byte-for-byte equivalent across every built-in solver and 1/2/4
// portfolio threads, (b) the hard drain mask shrinks the search space and
// keeps every solver off drained servers, (c) the migration ledger's
// disk-aware spill check flags a staged plan that transiently overloads a
// spindle-bound server (pre-refactor this plan staged "safe" because the
// ledger checked CPU/RAM only), and (d) per-class disk models genuinely
// change placement: update-heavy workloads land on the RAID class.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/bounds.h"
#include "core/engine.h"
#include "core/evaluator.h"
#include "core/greedy.h"
#include "model/analytic.h"
#include "online/migration.h"
#include "sim/capacity.h"
#include "sim/disk.h"
#include "sim/fleet.h"
#include "solve/portfolio.h"
#include "solve/solver.h"
#include "trace/scenario.h"
#include "util/rng.h"
#include "util/units.h"

namespace kairos {
namespace {

monitor::WorkloadProfile MakeProfile(const std::string& name, double cpu_cores,
                                     double ram_gb, double rows_per_sec,
                                     int samples = 6) {
  monitor::WorkloadProfile p;
  p.name = name;
  p.cpu_cores = util::TimeSeries::Constant(300, samples, cpu_cores);
  p.ram_bytes = util::TimeSeries::Constant(300, samples,
                                           ram_gb * static_cast<double>(util::kGiB));
  p.update_rows_per_sec = util::TimeSeries::Constant(300, samples, rows_per_sec);
  p.working_set_bytes = ram_gb * 0.8 * static_cast<double>(util::kGiB);
  return p;
}

std::shared_ptr<const model::DiskModel> SpindleModel() {
  static const auto model = std::make_shared<const model::DiskModel>(
      model::BuildAnalyticModel(sim::DiskSpec{}, model::AnalyticConfig{}, 96e9,
                                4000.0));
  return model;
}

std::shared_ptr<const model::DiskModel> RaidModel() {
  static const auto model = std::make_shared<const model::DiskModel>(
      model::BuildAnalyticModel(sim::DiskSpec::Raid10(), model::AnalyticConfig{},
                                120e9, 20000.0));
  return model;
}

solve::SolveBudget SmallBudget() {
  solve::SolveBudget budget;
  budget.max_iterations = 4000;
  budget.direct_evaluations = 400;
  budget.probe_direct_evaluations = 150;
  budget.local_search_max_sweeps = 20;
  return budget;
}

std::vector<solve::PortfolioSolverSpec> AllSolverSpecs(uint64_t seed) {
  std::vector<solve::PortfolioSolverSpec> specs;
  for (const std::string& name : solve::SolverNames()) {
    specs.push_back({name, seed});
    seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  }
  return specs;
}

// ---------------------------------------------------------------------------
// Legacy shared model == per-class same model, byte-for-byte
// ---------------------------------------------------------------------------

/// Disk-exercising workload mix on a uniform split fleet. `per_class`
/// attaches the spindle model to every class; false uses the legacy shared
/// problem field. Both must take identical code paths and produce
/// bit-identical numbers.
core::ConsolidationProblem DiskEquivalenceProblem(bool per_class) {
  constexpr int kServers = 8;
  core::ConsolidationProblem prob;
  for (int i = 0; i < 7; ++i) {
    prob.workloads.push_back(MakeProfile("w" + std::to_string(i),
                                         0.4 + 0.15 * i, 4.0 + 1.5 * i,
                                         30.0 + 45.0 * i));
  }
  prob.workloads[2].replicas = 2;
  prob.anti_affinity = {{1, 5}};
  const sim::MachineSpec target = sim::MachineSpec::ConsolidationTarget();
  prob.fleet.classes.clear();
  prob.fleet.AddClass(target, 3, 1.0).AddClass(target, kServers - 3, 1.0);
  if (per_class) {
    // One shared_ptr for every class: UniformMachines() stays true, so the
    // solver gates match the legacy path exactly.
    for (auto& c : prob.fleet.classes) c.disk_model = SpindleModel();
  } else {
    prob.disk_model = SpindleModel().get();
  }
  EXPECT_TRUE(prob.fleet.Uniform());
  return prob;
}

TEST(ResourceAxisEquivalenceTest, EvaluatorBitIdentical) {
  const core::ConsolidationProblem legacy = DiskEquivalenceProblem(false);
  const core::ConsolidationProblem per_class = DiskEquivalenceProblem(true);
  core::Evaluator ev_legacy(legacy, legacy.ServerCap());
  core::Evaluator ev_class(per_class, per_class.ServerCap());
  ASSERT_EQ(ev_legacy.num_slots(), ev_class.num_slots());

  util::Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int> assignment(ev_legacy.num_slots());
    for (int& a : assignment) {
      a = static_cast<int>(rng.UniformInt(0, legacy.ServerCap() - 1));
    }
    EXPECT_EQ(ev_legacy.Evaluate(assignment), ev_class.Evaluate(assignment));
  }
  // The greedy packers and the bound see the same per-class axis.
  EXPECT_EQ(core::BoundEngine::FractionalServerBound(legacy),
            core::BoundEngine::FractionalServerBound(per_class));
}

TEST(ResourceAxisEquivalenceTest, EverySolverBitIdentical) {
  const core::ConsolidationProblem legacy = DiskEquivalenceProblem(false);
  const core::ConsolidationProblem per_class = DiskEquivalenceProblem(true);
  const solve::SolveBudget budget = SmallBudget();

  for (const std::string& name : solve::SolverNames()) {
    auto solver_legacy = solve::CreateSolver(name, 23);
    auto solver_class = solve::CreateSolver(name, 23);
    ASSERT_NE(solver_legacy, nullptr) << name;
    const core::ConsolidationPlan a = solver_legacy->Solve(legacy, budget);
    const core::ConsolidationPlan b = solver_class->Solve(per_class, budget);
    EXPECT_EQ(a.assignment.server_of_slot, b.assignment.server_of_slot) << name;
    EXPECT_EQ(a.objective, b.objective) << name;
    EXPECT_EQ(a.feasible, b.feasible) << name;
  }
}

TEST(ResourceAxisEquivalenceTest, PortfolioBitIdenticalAcross124Threads) {
  const core::ConsolidationProblem legacy = DiskEquivalenceProblem(false);
  const core::ConsolidationProblem per_class = DiskEquivalenceProblem(true);
  const std::vector<solve::PortfolioSolverSpec> specs = AllSolverSpecs(31);

  std::vector<int> reference;
  for (int threads : {1, 2, 4}) {
    solve::PortfolioOptions options;
    options.threads = threads;
    options.budget = SmallBudget();
    const solve::PortfolioResult r_legacy =
        solve::PortfolioRunner(options).Run(legacy, specs);
    const solve::PortfolioResult r_class =
        solve::PortfolioRunner(options).Run(per_class, specs);
    ASSERT_GE(r_legacy.winner_index, 0);
    EXPECT_EQ(r_legacy.best.assignment.server_of_slot,
              r_class.best.assignment.server_of_slot)
        << threads << " threads";
    EXPECT_EQ(r_legacy.best.objective, r_class.best.objective);
    EXPECT_EQ(r_legacy.winner, r_class.winner);
    if (reference.empty()) {
      reference = r_legacy.best.assignment.server_of_slot;
    } else {
      EXPECT_EQ(r_legacy.best.assignment.server_of_slot, reference)
          << threads << " threads vs 1";
    }
  }
}

// ---------------------------------------------------------------------------
// Hard drain mask
// ---------------------------------------------------------------------------

TEST(DrainMaskTest, ShrinksSearchSpaceAndKeepsSolversOffDrainedServers) {
  // A big fleet with most of it drained: 30 drained legacy boxes ahead of
  // 20 live ones. The mask must shrink every solver's target set to the
  // live 20 outright — not just penalize the drained 30.
  const sim::MachineSpec target = sim::MachineSpec::ConsolidationTarget();
  core::ConsolidationProblem prob;
  for (int i = 0; i < 8; ++i) {
    prob.workloads.push_back(MakeProfile("w" + std::to_string(i),
                                         0.5 + 0.1 * i, 5.0 + 1.0 * i, 20.0));
  }
  prob.fleet.classes.clear();
  prob.fleet.AddClass(target, 30, 1.0).AddClass(target, 20, 1.0);
  prob.fleet.classes[0].drained = true;
  const int cap = prob.ServerCap();
  ASSERT_EQ(cap, 50);

  // The search space genuinely shrank: 20 placable targets, all in the
  // live class.
  const std::vector<int> placable = prob.fleet.PlacableServers(cap);
  ASSERT_EQ(static_cast<int>(placable.size()), 20);
  for (int j : placable) EXPECT_GE(j, 30);

  // Every built-in solver stays off the drained class.
  const solve::SolveBudget budget = SmallBudget();
  for (const std::string& name : solve::SolverNames()) {
    auto solver = solve::CreateSolver(name, 7);
    ASSERT_NE(solver, nullptr) << name;
    const core::ConsolidationPlan plan = solver->Solve(prob, budget);
    for (int s : plan.assignment.server_of_slot) {
      EXPECT_FALSE(prob.fleet.DrainedServer(s))
          << name << " placed a slot on drained server " << s;
    }
  }
}

// ---------------------------------------------------------------------------
// Disk-aware migration spill check (regression)
// ---------------------------------------------------------------------------

/// Two update-heavy tenants and three spindle-disk servers. CPU and RAM
/// fit everywhere; only the disk axis distinguishes the plans.
core::ConsolidationProblem SpindleBoundProblem() {
  core::ConsolidationProblem prob;
  const double rate = 0.55 * SpindleModel()->MaxSustainableRate(10e9);
  prob.workloads = {MakeProfile("a", 0.4, 8.0, rate, 4),
                    MakeProfile("b", 0.4, 8.0, rate, 4)};
  sim::MachineSpec spindle = sim::MachineSpec::ConsolidationTarget();
  spindle.name = "spindle";
  prob.fleet.classes.clear();
  prob.fleet.AddClass(spindle, 3, 1.0).WithClassDisk(SpindleModel());
  return prob;
}

TEST(DiskAwareLedgerTest, TransientSpindleOverloadFlaggedUnsafe) {
  // Regression: pre-refactor the ledger checked CPU/RAM only, so staging
  // both update-heavy tenants onto one spindle box passed as "safe" for
  // the wrong reason. The disk-aware spill check must refuse: one tenant
  // fits (55% of the sustainable rate), two together (110%) never do.
  const core::ConsolidationProblem prob = SpindleBoundProblem();
  const online::MigrationPlan bad =
      online::MigrationPlanner(/*max_stages=*/6).Plan(prob, {0, 1}, {2, 2});
  EXPECT_FALSE(bad.safe)
      << "disk-overloading staged plan was admitted:\n" << bad.Render();

  // The equivalent non-overloading plan still stages cleanly.
  const online::MigrationPlan good =
      online::MigrationPlanner().Plan(prob, {0, 1}, {2, 0});
  EXPECT_TRUE(good.safe) << good.Render();
  EXPECT_EQ(good.total_moves(), 2);
}

TEST(DiskAwareLedgerTest, LedgerTracksRateAndWorkingSet) {
  sim::FleetSpec fleet;
  fleet.AddClass(sim::MachineSpec::ConsolidationTarget(), 2, 1.0)
      .WithClassDisk(SpindleModel());
  sim::CapacityLedger ledger(fleet, 2, 4, 0.9, 0.95, 0.0);

  const std::vector<double> cpu(4, 0.5);
  const std::vector<double> ram(4, 4.0 * static_cast<double>(util::kGiB));
  const double cap = SpindleModel()->MaxSustainableRate(20e9);
  const std::vector<double> rate(4, 0.55 * cap);

  EXPECT_TRUE(ledger.CanAdd(0, cpu, ram, rate, 10e9));
  ledger.Add(0, cpu, ram, rate, 10e9);
  // A second identical tenant would exceed the headroomed frontier at the
  // *combined* working set.
  EXPECT_FALSE(ledger.CanAdd(0, cpu, ram, rate, 10e9));
  // The same CPU/RAM with no disk demand still passes: disk is what binds.
  EXPECT_TRUE(ledger.CanAdd(0, cpu, ram, std::vector<double>(4, 0.0), 0.0));
  // The other (empty) server takes it.
  EXPECT_TRUE(ledger.CanAdd(1, cpu, ram, rate, 10e9));
  // Removing the load frees the axis again.
  ledger.Remove(0, cpu, ram, rate, 10e9);
  EXPECT_TRUE(ledger.CanAdd(0, cpu, ram, rate, 10e9));
}

// ---------------------------------------------------------------------------
// Per-class disk models change placement
// ---------------------------------------------------------------------------

TEST(RaidVsSpindleTest, UpdateHeavyWorkloadsLandOnRaidClass) {
  trace::ScenarioConfig config;
  config.workloads = 8;
  config.steps = 8;
  config.seed = 5;
  const trace::FleetScenario scenario = trace::MakeFleetScenario(
      trace::FleetScenarioKind::kRaidVsSpindle, config);
  ASSERT_EQ(scenario.raid_class, 1);
  ASSERT_FALSE(scenario.update_heavy.empty());
  ASSERT_TRUE(scenario.fleet.AnyClassDisk());

  solve::PortfolioOptions options;
  options.budget = SmallBudget();

  core::ConsolidationProblem with_disk;
  with_disk.workloads = scenario.profiles;
  with_disk.fleet = scenario.fleet;
  const solve::PortfolioResult solved =
      solve::PortfolioRunner(options).Run(with_disk, AllSolverSpecs(9));
  ASSERT_TRUE(solved.best.feasible);

  core::ConsolidationProblem without_disk = with_disk;
  for (auto& c : without_disk.fleet.classes) c.disk_model.reset();
  const solve::PortfolioResult blind =
      solve::PortfolioRunner(options).Run(without_disk, AllSolverSpecs(9));
  ASSERT_TRUE(blind.best.feasible);

  auto heavy_on_raid = [&](const core::ConsolidationPlan& plan) {
    int n = 0;
    for (int w : scenario.update_heavy) {
      if (scenario.fleet.ClassOf(plan.assignment.server_of_slot[w]) ==
          scenario.raid_class) {
        ++n;
      }
    }
    return n;
  };
  const int aware = heavy_on_raid(solved.best);
  const int unaware = heavy_on_raid(blind.best);
  // The per-class models pull the update-heavy tenants onto RAID; without
  // them the cheaper spindle class absorbs everything.
  EXPECT_GT(aware, static_cast<int>(scenario.update_heavy.size()) / 2);
  EXPECT_GT(aware, unaware);
  EXPECT_EQ(unaware, 0);
}

}  // namespace
}  // namespace kairos
