#include "solve/portfolio.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "core/engine.h"
#include "core/greedy.h"
#include "obs/sink.h"
#include "solve/adapters.h"
#include "solve/annealing.h"
#include "solve/solver.h"
#include "solve/tabu.h"
#include "trace/scenario.h"
#include "util/units.h"

namespace kairos::solve {
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

core::ConsolidationProblem SmallProblem(int n = 6, double cpu = 0.5,
                                        double ram_gb = 30.0) {
  core::ConsolidationProblem prob;
  for (int i = 0; i < n; ++i) {
    prob.workloads.push_back(MakeProfile("w" + std::to_string(i), cpu, ram_gb));
  }
  return prob;
}

// A heterogeneous problem where greedy packing leaves room to improve.
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

TEST(SolverFactoryTest, NamesAreTheEightBuiltinsSorted) {
  const std::vector<std::string> expected = {
      "anneal", "engine", "exact", "greedy", "greedy-multi",
      "polish", "sharded", "tabu"};
  EXPECT_EQ(SolverNames(), expected);
  for (const std::string& name : SolverNames()) {
    const auto solver = CreateSolver(name, 7);
    ASSERT_NE(solver, nullptr) << name;
    EXPECT_EQ(solver->name(), name);
  }
}

TEST(SolverFactoryTest, UnknownNameReturnsNull) {
  EXPECT_EQ(CreateSolver("no-such-solver", 1), nullptr);
}

TEST(SolveAdaptersTest, GreedySolverMatchesGreedyBaseline) {
  const auto prob = SmallProblem();
  GreedyBaselineSolver solver;
  const auto plan = solver.Solve(prob, SolveBudget{});
  const auto direct = core::GreedyBaseline(prob, HardCap(prob));
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.servers_used, direct.servers_used);
}

TEST(SolveMetaheuristicTest, AnnealNeverWorseThanGreedySeed) {
  const auto prob = MixedProblem();
  const int cap = HardCap(prob);
  const auto seed = core::GreedyMultiResource(prob, cap);
  core::Evaluator ev(prob, cap);
  const double seed_cost = ev.Evaluate(seed.server_of_slot);

  for (uint64_t s : {1ULL, 2ULL, 42ULL}) {
    AnnealingSolver sa(s);
    const auto plan = sa.Solve(prob, SolveBudget{});
    EXPECT_LE(plan.objective, seed_cost) << "seed " << s;
  }
}

TEST(SolveMetaheuristicTest, TabuNeverWorseThanGreedySeed) {
  const auto prob = MixedProblem();
  const int cap = HardCap(prob);
  const auto seed = core::GreedyMultiResource(prob, cap);
  core::Evaluator ev(prob, cap);
  const double seed_cost = ev.Evaluate(seed.server_of_slot);

  for (uint64_t s : {1ULL, 2ULL, 42ULL}) {
    TabuSolver tabu(s);
    const auto plan = tabu.Solve(prob, SolveBudget{});
    EXPECT_LE(plan.objective, seed_cost) << "seed " << s;
  }
}

TEST(SolveMetaheuristicTest, MetaheuristicsFindFeasiblePacking) {
  // 6 x 30 GB: three fit per 96 GB server -> 2 servers.
  const auto prob = SmallProblem();
  SolveBudget budget;
  AnnealingSolver sa(3);
  const auto sa_plan = sa.Solve(prob, budget);
  EXPECT_TRUE(sa_plan.feasible);
  EXPECT_LE(sa_plan.servers_used, 3);

  TabuSolver tabu(3);
  const auto tabu_plan = tabu.Solve(prob, budget);
  EXPECT_TRUE(tabu_plan.feasible);
  EXPECT_EQ(tabu_plan.servers_used, 2);
}

TEST(SolveMetaheuristicTest, AnnealFloorRejectNeverRejectsAnAcceptedMove) {
  // Anneal draws `u` and rejects on the floor alone; the exact rule accepts
  // when u < exp(-delta / T). For every delta >= floor the floor reject
  // must never fire where the exact rule would accept — including delta ==
  // floor and its next representable values, u == 0, u on both sides of
  // exp(-floor / T), and floor / T around exp's 708 / 745 underflow edge.
  const double inf = std::numeric_limits<double>::infinity();
  int rejects = 0, checked = 0;
  for (double t : {1e-3, 1e-2, 0.1, 1.0, 7.5, 1e2, 1e3, 1e4, 1e5, 1e6}) {
    for (double ratio : {1e-12, 1e-3, 0.5, 1.0, 3.0, 40.0, 700.0, 707.9,
                         708.4, 709.8, 744.4, 745.1, 745.2, 746.0, 800.0}) {
      const double floor = ratio * t;
      const double e = std::exp(-floor / t);
      std::vector<double> us = {0.0,
                                std::numeric_limits<double>::denorm_min(),
                                0x1p-53,
                                e,
                                std::nextafter(e, 0.0),
                                std::nextafter(e, 1.0),
                                std::nextafter(std::nextafter(e, 1.0), 1.0),
                                e * (1 + 0x1p-40),
                                std::nextafter(e * (1 + 0x1p-40), 0.0),
                                std::nextafter(e * (1 + 0x1p-40), 1.0),
                                0.5,
                                1.0 - 0x1p-53};
      std::vector<double> deltas = {floor};
      for (int i = 0; i < 4; ++i) deltas.push_back(std::nextafter(deltas.back(), inf));
      deltas.push_back(floor * (1 + 1e-12));
      deltas.push_back(2 * floor);
      for (double delta : deltas) {
        for (double u : us) {
          if (u < 0 || u >= 1) continue;
          ++checked;
          const bool rejected = AnnealFloorRejects(floor, u, t);
          rejects += rejected ? 1 : 0;
          if (u < std::exp(-delta / t)) {
            EXPECT_FALSE(rejected) << "floor " << floor << " delta " << delta
                                   << " u " << u << " T " << t;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 10000);
  EXPECT_GT(rejects, checked / 4);  // the rule does prune
  // u == 0 always goes to the exact rule, even when exp underflows to 0.
  EXPECT_FALSE(AnnealFloorRejects(1e6, 0.0, 1.0));
  EXPECT_TRUE(AnnealFloorRejects(1e6, 0x1p-53, 1.0));
  EXPECT_TRUE(AnnealFloorRejects(10.0, 0.5, 1.0));
  EXPECT_FALSE(AnnealFloorRejects(10.0, 1e-6, 1.0));
}

TEST(PortfolioTest, BeatsOrMatchesSingleEngine) {
  const auto prob = MixedProblem();
  core::EngineOptions engine_options;
  const auto engine_plan =
      core::ConsolidationEngine(prob, engine_options).Solve();

  PortfolioRunner runner;
  const auto result = runner.Run(prob, PortfolioRunner::DefaultSpecs(1));
  ASSERT_GE(result.winner_index, 0);
  EXPECT_TRUE(result.best.feasible);
  EXPECT_LE(result.best.objective, engine_plan.objective);
  EXPECT_EQ(result.members.size(), 4u);
  // Every plan carries one summary per used server.
  EXPECT_EQ(result.best.server_summaries.size(),
            static_cast<size_t>(result.best.servers_used));
  for (const PortfolioMemberResult& member : result.members) {
    EXPECT_EQ(member.plan.server_summaries.size(),
              static_cast<size_t>(member.plan.servers_used))
        << member.solver;
  }
}

TEST(PortfolioTest, DeterministicForFixedSeeds) {
  const auto prob = MixedProblem();
  const auto specs = PortfolioRunner::DefaultSpecs(7);

  PortfolioOptions two_threads;
  two_threads.threads = 2;
  PortfolioOptions four_threads;
  four_threads.threads = 4;

  const auto r1 = PortfolioRunner(two_threads).Run(prob, specs);
  const auto r2 = PortfolioRunner(four_threads).Run(prob, specs);
  const auto r3 = PortfolioRunner(two_threads).Run(prob, specs);

  ASSERT_GE(r1.winner_index, 0);
  // Byte-identical winning assignment across runs and thread counts.
  EXPECT_EQ(r1.best.assignment.server_of_slot, r2.best.assignment.server_of_slot);
  EXPECT_EQ(r1.best.assignment.server_of_slot, r3.best.assignment.server_of_slot);
  EXPECT_EQ(r1.winner_index, r2.winner_index);
  EXPECT_EQ(r1.winner, r3.winner);
  EXPECT_DOUBLE_EQ(r1.best.objective, r2.best.objective);
  // Per-member plans are deterministic too, not just the winner.
  for (size_t i = 0; i < r1.members.size(); ++i) {
    EXPECT_EQ(r1.members[i].plan.assignment.server_of_slot,
              r2.members[i].plan.assignment.server_of_slot)
        << specs[i].solver;
  }
}

TEST(PortfolioTest, ReclassPlansIdenticalAcrossThreadCounts) {
  // A scale-up-vs-out fleet: anneal and tabu propose re-class packages
  // (ApplyPackage, and anneal's UndoPackage on reject), and every member's
  // plan must stay byte-identical at 1, 2 and 4 portfolio threads.
  trace::ScenarioConfig config;
  config.workloads = 12;
  config.steps = 24;
  config.seed = 3;
  trace::FleetScenario scenario =
      trace::MakeFleetScenario(trace::FleetScenarioKind::kScaleUpVsScaleOut, config);
  core::ConsolidationProblem prob;
  prob.workloads = std::move(scenario.profiles);
  prob.fleet = std::move(scenario.fleet);
  ASSERT_FALSE(prob.fleet.Uniform());
  const auto specs = PortfolioRunner::DefaultSpecs(11);

  std::vector<PortfolioResult> runs;
  int64_t packages = 0;
  for (int threads : {1, 2, 4}) {
    obs::Sink sink;
    PortfolioOptions options;
    options.threads = threads;
    options.budget.max_iterations = 6000;
    options.budget.direct_evaluations = 600;
    options.budget.probe_direct_evaluations = 200;
    options.budget.sink = &sink;
    runs.push_back(PortfolioRunner(options).Run(prob, specs));
    packages += sink.metrics().counter("evaluator.package_moves")->Value();
  }
  EXPECT_GT(packages, 0);  // the re-class path ran
  for (size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].members.size(), runs[0].members.size());
    EXPECT_EQ(runs[r].winner_index, runs[0].winner_index);
    EXPECT_EQ(runs[r].best.assignment.server_of_slot,
              runs[0].best.assignment.server_of_slot);
    for (size_t i = 0; i < runs[0].members.size(); ++i) {
      const core::ConsolidationPlan& a = runs[0].members[i].plan;
      const core::ConsolidationPlan& b = runs[r].members[i].plan;
      EXPECT_EQ(a.assignment.server_of_slot, b.assignment.server_of_slot)
          << specs[i].solver << " run " << r;
      EXPECT_EQ(std::memcmp(&a.objective, &b.objective, sizeof(double)), 0)
          << specs[i].solver << " run " << r;
    }
  }
}

TEST(PortfolioTest, MemberPlansEqualStandaloneSolves) {
  // The solve/ contract: a member's plan is a pure function of (problem,
  // budget, seed), so running it beside its siblings, on any thread count,
  // gives the plan it gives alone.
  trace::ScenarioConfig config;
  config.workloads = 12;
  config.steps = 24;
  config.seed = 5;
  trace::FleetScenario scenario =
      trace::MakeFleetScenario(trace::FleetScenarioKind::kScaleUpVsScaleOut, config);
  core::ConsolidationProblem mixed;
  mixed.workloads = std::move(scenario.profiles);
  mixed.fleet = std::move(scenario.fleet);
  ASSERT_FALSE(mixed.fleet.Uniform());
  core::ConsolidationProblem uniform = MixedProblem();
  ASSERT_TRUE(uniform.fleet.Uniform());

  SolveBudget budget;
  budget.max_iterations = 6000;
  budget.direct_evaluations = 600;
  budget.probe_direct_evaluations = 200;
  const auto specs = PortfolioRunner::DefaultSpecs(13);
  for (const core::ConsolidationProblem* prob : {&uniform, &mixed}) {
    std::vector<core::ConsolidationPlan> alone;
    for (const PortfolioSolverSpec& spec : specs) {
      alone.push_back(
          CreateSolver(spec.solver, spec.seed)->Solve(*prob, budget));
    }
    for (int threads : {1, 4}) {
      PortfolioOptions options;
      options.threads = threads;
      options.budget = budget;
      const PortfolioResult result = PortfolioRunner(options).Run(*prob, specs);
      ASSERT_EQ(result.members.size(), specs.size());
      for (size_t i = 0; i < specs.size(); ++i) {
        const core::ConsolidationPlan& plan = result.members[i].plan;
        EXPECT_EQ(plan.assignment.server_of_slot,
                  alone[i].assignment.server_of_slot)
            << specs[i].solver << " at " << threads << " threads";
        EXPECT_EQ(std::memcmp(&plan.objective, &alone[i].objective,
                              sizeof(double)),
                  0)
            << specs[i].solver << " at " << threads << " threads";
      }
    }
  }
}

TEST(PortfolioTest, UnknownSolverReportedEmpty) {
  const auto prob = SmallProblem(3);
  PortfolioRunner runner;
  const auto result = runner.Run(prob, {{"greedy", 1}, {"bogus", 2}});
  ASSERT_EQ(result.members.size(), 2u);
  EXPECT_EQ(result.winner, "greedy");
  EXPECT_TRUE(result.members[1].plan.assignment.server_of_slot.empty());
}

TEST(PortfolioTest, RespectsPinsAndReplicas) {
  core::ConsolidationProblem prob;
  prob.workloads.push_back(MakeProfile("r", 0.5, 8.0));
  prob.workloads.back().replicas = 3;
  prob.workloads.push_back(MakeProfile("s", 0.5, 8.0));
  prob.workloads.back().pinned_server = 1;
  prob.max_servers = 4;

  PortfolioRunner runner;
  const auto result = runner.Run(prob, PortfolioRunner::DefaultSpecs(5));
  ASSERT_GE(result.winner_index, 0);
  EXPECT_TRUE(result.best.feasible);
  const auto& a = result.best.assignment.server_of_slot;
  ASSERT_EQ(a.size(), 4u);
  // Replicas on distinct servers; pin honoured.
  EXPECT_NE(a[0], a[1]);
  EXPECT_NE(a[0], a[2]);
  EXPECT_NE(a[1], a[2]);
  EXPECT_EQ(a[3], 1);
}

}  // namespace
}  // namespace kairos::solve
