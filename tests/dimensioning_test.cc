// Cost-based fleet dimensioning (core::FleetDimensioner, which the engine
// runs on every fleet that mixes machine classes): the budget search over
// class mixes must convert the ROADMAP's known wrong-answer case —
// bounded-K prefix probing skipping a cheaper/denser class declared late in
// the fleet order — into a solved one, while uniform fleets keep the
// count-prefix search, byte-for-byte at every portfolio thread count. Also
// unit-covers the pieces this rides on: the disk-aware DenseServerOrder
// score, the subset-restricted greedy packing, and the bounded-best-class
// BoundEngine::FractionalServerBound.
#include "core/dimensioner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/bounds.h"
#include "core/engine.h"
#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/load_accountant.h"
#include "model/analytic.h"
#include "sim/disk.h"
#include "solve/portfolio.h"
#include "solve/solver.h"
#include "trace/scenario.h"
#include "util/units.h"

namespace kairos {
namespace {

monitor::WorkloadProfile MakeProfile(const std::string& name, double cpu_cores,
                                     double ram_gb, int samples = 4) {
  monitor::WorkloadProfile p;
  p.name = name;
  p.cpu_cores = util::TimeSeries::Constant(300, samples, cpu_cores);
  p.ram_bytes = util::TimeSeries::Constant(
      300, samples, ram_gb * static_cast<double>(util::kGiB));
  p.update_rows_per_sec = util::TimeSeries::Constant(300, samples, 0.0);
  p.working_set_bytes = ram_gb * 0.8 * static_cast<double>(util::kGiB);
  return p;
}

solve::SolveBudget TestBudget() {
  solve::SolveBudget budget;
  budget.max_iterations = 8000;
  budget.direct_evaluations = 800;
  budget.probe_direct_evaluations = 300;
  budget.local_search_max_sweeps = 40;
  return budget;
}

core::EngineOptions EngineOptionsFor(const solve::SolveBudget& budget) {
  core::EngineOptions options;
  options.seed = 11;
  options.direct_evaluations = budget.direct_evaluations;
  options.probe_direct_evaluations = budget.probe_direct_evaluations;
  options.local_search_max_sweeps = budget.local_search_max_sweeps;
  return options;
}

std::vector<solve::PortfolioSolverSpec> AllSpecs(uint64_t seed) {
  std::vector<solve::PortfolioSolverSpec> specs;
  for (const std::string& name : solve::SolverNames()) {
    specs.push_back({name, seed});
    seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  }
  return specs;
}

// ---------------------------------------------------------------------------
// The ROADMAP miss: RAID classes declared last, prefix probing blind
// ---------------------------------------------------------------------------

core::ConsolidationProblem RaidProblem(trace::FleetScenario* scenario_out) {
  trace::ScenarioConfig config;
  config.steps = 16;
  config.seed = 7;
  *scenario_out = trace::MakeFleetScenario(
      trace::FleetScenarioKind::kRaidVsSpindle, config);
  core::ConsolidationProblem problem;
  problem.workloads = scenario_out->profiles;
  problem.fleet = scenario_out->fleet;
  return problem;
}

TEST(CostBudgetDimensioningTest, RaidDeclaredLastBeatsPrefixAndGreedy) {
  trace::FleetScenario scenario;
  const core::ConsolidationProblem problem = RaidProblem(&scenario);
  // Premise of the regression: the RAID class is declared *last*, so the
  // declaration-order prefix opens every spindle before the first RAID box.
  ASSERT_EQ(scenario.raid_class, problem.fleet.num_classes() - 1);
  ASSERT_FALSE(problem.fleet.Uniform());

  const solve::SolveBudget budget = TestBudget();
  const core::ConsolidationPlan cost_plan =
      core::ConsolidationEngine(problem, EngineOptionsFor(budget)).Solve();

  ASSERT_TRUE(cost_plan.feasible);
  EXPECT_GT(cost_plan.budget_probes, 0);

  // Never worse than the class-aware greedy baseline's fleet cost...
  auto greedy_solver = solve::CreateSolver("greedy", 11);
  ASSERT_NE(greedy_solver, nullptr);
  const core::ConsolidationPlan greedy_plan =
      greedy_solver->Solve(problem, budget);
  ASSERT_TRUE(greedy_plan.feasible);
  EXPECT_LE(cost_plan.fleet_cost, greedy_plan.fleet_cost + 1e-9);

  // ...and within 1% of the best plan the whole portfolio finds.
  solve::PortfolioOptions options;
  options.budget = budget;
  const solve::PortfolioResult portfolio =
      solve::PortfolioRunner(options).Run(problem, AllSpecs(11));
  ASSERT_TRUE(portfolio.best.feasible);
  EXPECT_LE(cost_plan.objective, portfolio.best.objective * 1.01);
}

TEST(CostBudgetDimensioningTest, DimensionerChoosesRaidMixUnderBudget) {
  trace::FleetScenario scenario;
  const core::ConsolidationProblem problem = RaidProblem(&scenario);
  const solve::SolveBudget budget = TestBudget();
  core::ConsolidationEngine engine(problem, EngineOptionsFor(budget));
  core::FleetDimensioner dimensioner(problem, engine, EngineOptionsFor(budget));
  const core::GreedyResult greedy =
      core::GreedyBaseline(problem, problem.ServerCap());
  const core::DimensioningResult dim = dimensioner.Run(greedy);

  ASSERT_TRUE(dim.found);
  EXPECT_GT(dim.budget_probes, 0);
  ASSERT_EQ(dim.class_counts.size(), 2u);
  // The chosen mix actually buys the late-declared RAID class, and costs
  // less than the all-spindle fleet the declaration prefix is stuck with.
  EXPECT_GT(dim.class_counts[scenario.raid_class], 0);
  const double spindle_only_cost =
      static_cast<double>(problem.fleet.classes[0].count) *
      problem.fleet.classes[0].cost_weight;
  EXPECT_LT(dim.budget, spindle_only_cost);
  // The probe's assignment is restricted to the chosen multiset.
  std::vector<char> member(problem.ServerCap(), 0);
  for (int j : dim.servers) member[j] = 1;
  core::Evaluator ev(problem, problem.ServerCap());
  for (int s : dim.assignment.server_of_slot) {
    EXPECT_TRUE(member[s]) << "slot placed outside the chosen mix";
  }
  ev.Load(dim.assignment.server_of_slot);
  EXPECT_TRUE(ev.IsFeasible());
}

// ---------------------------------------------------------------------------
// The interleaved-mix miss: no purchase-order prefix reaches the optimum
// ---------------------------------------------------------------------------

core::ConsolidationProblem InterleavedProblem(trace::FleetScenario* scenario_out) {
  trace::ScenarioConfig config;
  config.steps = 12;
  config.seed = 7;
  *scenario_out = trace::MakeFleetScenario(
      trace::FleetScenarioKind::kInterleavedMix, config);
  core::ConsolidationProblem problem;
  problem.workloads = scenario_out->profiles;
  problem.fleet = scenario_out->fleet;
  return problem;
}

/// The retired prefix enumeration's candidate purchase orders, rebuilt from
/// the public pieces it was made of: the dense order, cheapest-class-first,
/// and each class's servers first (dense within and after). The cheapest
/// fractional-cover prefix across these is everything that search could
/// ever probe — the floor the knapsack has to beat.
double CheapestPrefixCoverCost(const core::ConsolidationProblem& problem,
                               const core::LoadAccountant& acct,
                               const core::LoadAccountant::AggregateDemand& demand) {
  std::vector<std::vector<int>> orders;
  const std::vector<int> dense = core::DenseServerOrder(acct);
  orders.push_back(dense);
  std::vector<int> cheap = acct.PlacableServers();
  std::stable_sort(cheap.begin(), cheap.end(), [&](int a, int b) {
    return acct.ClassWeight(acct.ClassOfServer(a)) <
           acct.ClassWeight(acct.ClassOfServer(b));
  });
  orders.push_back(std::move(cheap));
  for (int c = 0; c < acct.num_classes(); ++c) {
    std::vector<int> first = dense;
    std::stable_partition(first.begin(), first.end(), [&](int j) {
      return acct.ClassOfServer(j) == c;
    });
    orders.push_back(std::move(first));
  }

  double best = std::numeric_limits<double>::infinity();
  for (const std::vector<int>& order : orders) {
    const int m = core::BoundEngine::CoveragePrefix(acct, demand,
                                                    /*min_servers=*/1, order);
    if (m <= 0) continue;
    double cost = 0;
    for (int i = 0; i < m; ++i) {
      cost += acct.ClassWeight(acct.ClassOfServer(order[i]));
    }
    best = std::min(best, cost);
  }
  return best;
}

TEST(CostBudgetDimensioningTest, KnapsackReachesInterleavedMixPrefixesMiss) {
  trace::FleetScenario scenario;
  const core::ConsolidationProblem problem = InterleavedProblem(&scenario);
  ASSERT_EQ(problem.fleet.num_classes(), 3);
  const int cap = problem.ServerCap();
  const core::LoadAccountant acct(problem, cap, /*track_server_load=*/false);
  const core::LoadAccountant::AggregateDemand demand = acct.TotalDemand();

  // The knapsack's cheapest cover interleaves both specialist classes —
  // partial counts of each, none of the dear fallback...
  const std::vector<int> avail = problem.fleet.ClassCounts(cap);
  const std::vector<core::ClassMix> mixes = core::BoundEngine::CheapestCoverMixes(
      acct, demand, /*min_servers=*/1, /*min_counts=*/{0, 0, 0}, avail,
      /*max_cost=*/0.0, /*max_mixes=*/8);
  ASSERT_FALSE(mixes.empty());
  const core::ClassMix& best = mixes.front();
  EXPECT_GT(best.counts[0], 0);
  EXPECT_LT(best.counts[0], avail[0]);
  EXPECT_GT(best.counts[1], 0);
  EXPECT_LT(best.counts[1], avail[1]);
  EXPECT_EQ(best.counts[2], 0);

  // ...and costs strictly less than the cheapest coverage prefix of ANY
  // candidate purchase order: the retired enumeration provably never
  // probed a subset this cheap.
  const double prefix_floor = CheapestPrefixCoverCost(problem, acct, demand);
  ASSERT_TRUE(std::isfinite(prefix_floor));
  EXPECT_LT(best.cost, prefix_floor - 1e-9);

  // End to end, the dimensioner lands on that interleaved mix (anchor
  // disabled: the reach claim is about the dimensioner's own search space).
  const solve::SolveBudget budget = TestBudget();
  core::ConsolidationEngine engine(problem, EngineOptionsFor(budget));
  core::FleetDimensioner dimensioner(problem, engine, EngineOptionsFor(budget));
  const core::DimensioningResult dim = dimensioner.Run(core::GreedyResult{});
  ASSERT_TRUE(dim.found);
  ASSERT_EQ(dim.class_counts.size(), 3u);
  EXPECT_GT(dim.class_counts[0], 0);
  EXPECT_GT(dim.class_counts[1], 0);
  EXPECT_EQ(dim.class_counts[2], 0);
  EXPECT_LT(dim.budget, prefix_floor - 1e-9);

  core::Evaluator ev(problem, cap);
  ev.Load(dim.assignment.server_of_slot);
  EXPECT_TRUE(ev.IsFeasible());
}

// ---------------------------------------------------------------------------
// Uniform fleets: the count-prefix search, byte for byte
// ---------------------------------------------------------------------------

core::ConsolidationProblem UniformProblem() {
  core::ConsolidationProblem problem;
  for (int i = 0; i < 8; ++i) {
    problem.workloads.push_back(
        MakeProfile("w" + std::to_string(i), 0.5 + 0.2 * i, 4.0 + 1.0 * i));
  }
  problem.workloads[1].replicas = 2;
  problem.anti_affinity = {{3, 4}};
  const sim::MachineSpec target = sim::MachineSpec::ConsolidationTarget();
  problem.fleet.classes.clear();
  problem.fleet.AddClass(target, 4, 1.0).AddClass(target, 6, 1.0);
  return problem;
}

TEST(CostBudgetDimensioningTest, UniformFleetSkipsTheBudgetSearch) {
  const core::ConsolidationProblem problem = UniformProblem();
  ASSERT_TRUE(problem.fleet.Uniform());
  const core::ConsolidationPlan plan =
      core::ConsolidationEngine(problem, EngineOptionsFor(TestBudget())).Solve();
  EXPECT_EQ(plan.budget_probes, 0);
  EXPECT_TRUE(plan.chosen_class_counts.empty());
}

TEST(CostBudgetDimensioningTest, UniformPortfolioBitIdenticalAcrossThreads) {
  const core::ConsolidationProblem problem = UniformProblem();
  std::vector<int> reference;
  for (int threads : {1, 2, 4}) {
    solve::PortfolioOptions options;
    options.threads = threads;
    options.budget = TestBudget();
    const solve::PortfolioResult result =
        solve::PortfolioRunner(options).Run(problem, AllSpecs(5));
    ASSERT_GE(result.winner_index, 0);
    if (reference.empty()) {
      reference = result.best.assignment.server_of_slot;
    } else {
      EXPECT_EQ(result.best.assignment.server_of_slot, reference)
          << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Units: disk-aware dense order, restricted packing, bounded lower bound
// ---------------------------------------------------------------------------

TEST(DenseServerOrderTest, DiskModelBreaksCpuRamTie) {
  // Identical CPU/RAM and cost weight; only the disk models differ. The
  // disk-aware score must rank the RAID class denser.
  const model::AnalyticConfig disk_cfg;
  auto spindle_model = std::make_shared<model::DiskModel>(
      model::BuildAnalyticModel(sim::DiskSpec{}, disk_cfg, 96e9, 4000.0));
  auto raid_model = std::make_shared<model::DiskModel>(
      model::BuildAnalyticModel(sim::DiskSpec::Raid10(), disk_cfg, 120e9,
                                20000.0));
  core::ConsolidationProblem problem;
  problem.workloads.push_back(MakeProfile("w", 0.5, 4.0));
  const sim::MachineSpec box = sim::MachineSpec::ConsolidationTarget();
  problem.fleet.classes.clear();
  problem.fleet.AddClass(box, 2, 1.0)
      .WithClassDisk(spindle_model)
      .AddClass(box, 2, 1.0)
      .WithClassDisk(raid_model);

  const core::LoadAccountant acct(problem, problem.ServerCap(),
                                  /*track_server_load=*/false);
  const std::vector<int> order = core::DenseServerOrder(acct);
  ASSERT_EQ(order.size(), 4u);
  // RAID servers (indices 2, 3) lead.
  EXPECT_EQ(acct.ClassOfServer(order[0]), 1);
  EXPECT_EQ(acct.ClassOfServer(order[1]), 1);

  // Without disk models the same fleet scores by CPU/RAM only: equal
  // classes keep ascending index order (the pre-disk-aware ranking).
  core::ConsolidationProblem plain = problem;
  plain.fleet.classes[0].disk_model = nullptr;
  plain.fleet.classes[1].disk_model = nullptr;
  const core::LoadAccountant plain_acct(plain, plain.ServerCap(),
                                        /*track_server_load=*/false);
  EXPECT_EQ(core::DenseServerOrder(plain_acct),
            (std::vector<int>{0, 1, 2, 3}));
}

TEST(GreedyRestrictionTest, MultiResourcePackingStaysInsideSubset) {
  core::ConsolidationProblem problem;
  for (int i = 0; i < 6; ++i) {
    problem.workloads.push_back(MakeProfile("w" + std::to_string(i), 0.4, 6.0));
  }
  problem.fleet.classes.clear();
  problem.fleet.AddClass(sim::MachineSpec::ConsolidationTarget(), 8, 1.0);
  problem.max_servers = 8;

  const std::vector<int> subset = {2, 5};
  const core::Assignment packed = core::GreedyMultiResource(problem, 8, &subset);
  for (int s : packed.server_of_slot) {
    EXPECT_TRUE(s == 2 || s == 5) << "packed onto server " << s;
  }
}

TEST(FractionalLowerBoundTest, BoundedBestClassSpillsToSmallerClasses) {
  // 30 standard cores of demand. One big box (24 cores) covers 19.4 after
  // headroom; pretending every server is big ("best class") would report
  // ceil(30 / 19.4) = 2 — unreachable, there is only one big box. Filling
  // best-class-first then spilling to the 4-core smalls (3.6 usable each)
  // needs 1 + ceil((30 - 19.44) / 3.24) = 5.
  sim::MachineSpec small;
  small.name = "small4c16g";
  small.cores = 4;
  small.ram_bytes = 16 * util::kGiB;
  sim::MachineSpec big;
  big.name = "big24c192g";
  big.cores = 24;
  big.ram_bytes = 192 * util::kGiB;

  core::ConsolidationProblem problem;
  for (int i = 0; i < 10; ++i) {
    problem.workloads.push_back(MakeProfile("w" + std::to_string(i), 3.0, 1.0));
  }
  problem.fleet.classes.clear();
  problem.fleet.AddClass(small, 20, 1.0).AddClass(big, 1, 2.0);
  const int bound = core::BoundEngine::FractionalServerBound(problem);
  EXPECT_GT(bound, 2);  // the old all-best-class bound
  EXPECT_LE(bound, 10);

  // Uniform fleets keep the classic arithmetic.
  core::ConsolidationProblem uniform;
  for (int i = 0; i < 10; ++i) {
    uniform.workloads.push_back(MakeProfile("w" + std::to_string(i), 3.0, 1.0));
  }
  uniform.fleet = sim::FleetSpec::Homogeneous(big);
  const double usable = big.StandardCores() * uniform.cpu_headroom;
  EXPECT_EQ(core::BoundEngine::FractionalServerBound(uniform),
            static_cast<int>(std::ceil(30.0 / usable)));
}

}  // namespace
}  // namespace kairos
