// The "exact" branch-and-bound solver: on fleets small enough to enumerate
// it must match the brute-force optimum of the same encoding and prove it
// (proved_optimal, gap 0); on larger instances it must respect the node
// budget and report a truncation gap instead of running away. Plans stay a
// pure function of (problem, budget, seed), and Render() surfaces the
// gap/proved-optimal line only for exact plans.
#include "solve/branch_bound.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/engine.h"
#include "solve/solver.h"
#include "tests/oracle/reference_checker.h"
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
  budget.max_iterations = 4000;
  budget.direct_evaluations = 400;
  budget.probe_direct_evaluations = 200;
  budget.local_search_max_sweeps = 20;
  return budget;
}

/// Exhaustive optimum over EVERY assignment of slots to [0, cap) — a strict
/// superset of the branch-and-bound's encoding (pin-violating placements
/// carry the pin penalty and lose), so matching it proves global optimality.
/// Scored by the reference checker, so a shared bug in core's objective
/// cannot make both sides agree.
double BruteForceBest(const core::ConsolidationProblem& problem, int cap) {
  const int slots = problem.TotalSlots();
  std::vector<int> a(slots, 0);
  double best = std::numeric_limits<double>::infinity();
  while (true) {
    best = std::min(best, oracle::Objective(problem, a));
    int i = 0;
    while (i < slots) {
      if (++a[i] < cap) break;
      a[i] = 0;
      ++i;
    }
    if (i == slots) break;
  }
  return best;
}

void ExpectMatchesBruteForce(const core::ConsolidationProblem& problem) {
  const int cap = solve::HardCap(problem);
  const double brute = BruteForceBest(problem, cap);

  auto solver = solve::CreateSolver("exact", 17);
  ASSERT_NE(solver, nullptr);
  const core::ConsolidationPlan plan =
      solver->Solve(problem, TestBudget());

  EXPECT_TRUE(plan.exact_search);
  EXPECT_TRUE(plan.proved_optimal);
  EXPECT_EQ(plan.optimality_gap, 0.0);
  EXPECT_GT(plan.exact_nodes, 0);
  EXPECT_LE(std::abs(plan.objective - brute),
            1e-6 * std::max(1.0, std::abs(brute)))
      << "exact " << plan.objective << " vs brute force " << brute;

  // The reported objective is the plan's true score, not an accumulator.
  const double rescored =
      oracle::Objective(problem, plan.assignment.server_of_slot);
  EXPECT_LE(std::abs(plan.objective - rescored),
            1e-6 * std::max(1.0, std::abs(rescored)));
}

TEST(ExactSolverTest, MatchesBruteForceUniformFleet) {
  core::ConsolidationProblem problem;
  for (int i = 0; i < 4; ++i) {
    problem.workloads.push_back(
        MakeProfile("w" + std::to_string(i), 0.6 + 0.3 * i, 3.0 + 2.0 * i));
  }
  problem.workloads[1].replicas = 2;  // 5 slots
  problem.anti_affinity = {{0, 2}};
  problem.fleet =
      sim::FleetSpec::Homogeneous(sim::MachineSpec::ConsolidationTarget());
  problem.max_servers = 3;  // 3^5 = 243 assignments
  ExpectMatchesBruteForce(problem);
}

TEST(ExactSolverTest, MatchesBruteForceHeterogeneousFleet) {
  core::ConsolidationProblem problem;
  for (int i = 0; i < 4; ++i) {
    problem.workloads.push_back(
        MakeProfile("w" + std::to_string(i), 0.5 + 0.4 * i, 4.0 + 3.0 * i));
  }
  problem.fleet.classes.clear();
  problem.fleet.AddClass(sim::MachineSpec::Server1(), 2, 0.8)
      .AddClass(sim::MachineSpec::ConsolidationTarget(), 2, 1.0);
  ExpectMatchesBruteForce(problem);  // 4^4 = 256 assignments
}

TEST(ExactSolverTest, MatchesBruteForceWithPins) {
  core::ConsolidationProblem problem;
  for (int i = 0; i < 4; ++i) {
    problem.workloads.push_back(
        MakeProfile("w" + std::to_string(i), 0.7, 5.0 + 2.0 * i));
  }
  problem.workloads[0].pinned_server = 1;
  problem.fleet =
      sim::FleetSpec::Homogeneous(sim::MachineSpec::ConsolidationTarget());
  problem.max_servers = 3;
  ExpectMatchesBruteForce(problem);

  auto solver = solve::CreateSolver("exact", 17);
  const core::ConsolidationPlan plan =
      solver->Solve(problem, TestBudget());
  EXPECT_EQ(plan.assignment.server_of_slot[0], 1);
}

TEST(ExactSolverTest, RespectsNodeBudgetAndReportsGap) {
  core::ConsolidationProblem problem;
  for (int i = 0; i < 18; ++i) {
    problem.workloads.push_back(MakeProfile(
        "w" + std::to_string(i), 0.4 + 0.1 * (i % 5), 3.0 + 1.0 * (i % 7)));
  }
  problem.fleet =
      sim::FleetSpec::Homogeneous(sim::MachineSpec::ConsolidationTarget());
  problem.max_servers = 12;

  solve::SolveBudget budget = TestBudget();
  budget.exact_max_nodes = 40;  // far too few for 18 slots x 12 servers
  auto solver = solve::CreateSolver("exact", 17);
  ASSERT_NE(solver, nullptr);
  const core::ConsolidationPlan plan = solver->Solve(problem, budget);

  EXPECT_TRUE(plan.exact_search);
  EXPECT_FALSE(plan.proved_optimal);
  EXPECT_LE(plan.exact_nodes, budget.exact_max_nodes + 1);
  EXPECT_GE(plan.optimality_gap, 0.0);
  // Truncated or not, the returned plan is a complete valid assignment (the
  // warm start when nothing better was reached in time).
  ASSERT_EQ(plan.assignment.server_of_slot.size(),
            static_cast<size_t>(problem.TotalSlots()));
  const int cap = solve::HardCap(problem);
  for (int s : plan.assignment.server_of_slot) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, cap);
  }
}

TEST(ExactSolverTest, DeterministicAcrossRuns) {
  core::ConsolidationProblem problem;
  for (int i = 0; i < 6; ++i) {
    problem.workloads.push_back(
        MakeProfile("w" + std::to_string(i), 0.5 + 0.2 * i, 4.0 + 1.5 * i));
  }
  problem.fleet.classes.clear();
  problem.fleet.AddClass(sim::MachineSpec::Server1(), 3, 0.8)
      .AddClass(sim::MachineSpec::ConsolidationTarget(), 3, 1.0);

  auto a = solve::CreateSolver("exact", 23);
  auto b = solve::CreateSolver("exact", 23);
  const core::ConsolidationPlan pa = a->Solve(problem, TestBudget());
  const core::ConsolidationPlan pb = b->Solve(problem, TestBudget());
  EXPECT_EQ(pa.assignment.server_of_slot, pb.assignment.server_of_slot);
  EXPECT_EQ(pa.objective, pb.objective);
  EXPECT_EQ(pa.exact_nodes, pb.exact_nodes);
}

TEST(ExactSolverTest, RenderGapLineGatedOnExactSearch) {
  core::ConsolidationProblem problem;
  for (int i = 0; i < 4; ++i) {
    problem.workloads.push_back(
        MakeProfile("w" + std::to_string(i), 0.6, 4.0 + 1.0 * i));
  }
  problem.fleet =
      sim::FleetSpec::Homogeneous(sim::MachineSpec::ConsolidationTarget());
  problem.max_servers = 3;

  auto exact = solve::CreateSolver("exact", 17);
  const core::ConsolidationPlan exact_plan =
      exact->Solve(problem, TestBudget());
  EXPECT_NE(exact_plan.Render().find("exact:"), std::string::npos);
  EXPECT_NE(exact_plan.Render().find("proved optimal"), std::string::npos);

  auto engine = solve::CreateSolver("engine", 17);
  const core::ConsolidationPlan engine_plan =
      engine->Solve(problem, TestBudget());
  EXPECT_EQ(engine_plan.Render().find("exact:"), std::string::npos);
}

}  // namespace
}  // namespace kairos
