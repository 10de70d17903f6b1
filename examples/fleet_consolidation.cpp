// Heterogeneous-fleet consolidation: place one set of workloads onto a
// mixed-generation fleet (cheap legacy Server 1 boxes next to bigger
// current-generation targets) and compare the class-aware placement with
// the same workloads forced onto the weakest class only.
//
//   build/example_fleet_consolidation
//
// The fleet is data, not a constant: sim::FleetSpec lists machine classes
// (spec, count, per-server cost weight) and every layer — evaluator,
// greedy, metaheuristics, migration planner — prices servers per class.
#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "solve/portfolio.h"
#include "trace/scenario.h"
#include "util/table.h"

using namespace kairos;

namespace {

core::ConsolidationPlan SolveOn(const std::vector<monitor::WorkloadProfile>& workloads,
                                const sim::FleetSpec& fleet, std::string* winner) {
  core::ConsolidationProblem problem;
  problem.workloads = workloads;
  problem.fleet = fleet;

  std::vector<solve::PortfolioSolverSpec> specs;
  uint64_t seed = 2026;
  for (const std::string& name : solve::SolverNames()) {
    specs.push_back({name, seed});
    seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  }
  const solve::PortfolioResult result =
      solve::PortfolioRunner().Run(problem, specs);
  if (winner) *winner = result.winner;
  return result.best;
}

}  // namespace

int main() {
  // A dozen steady workloads spread from small to RAM-hungry.
  trace::ScenarioConfig config;
  config.steps = 32;
  config.seed = 2026;
  const trace::FleetScenario scenario = trace::MakeFleetScenario(
      trace::FleetScenarioKind::kMixedGeneration, config);

  std::printf("fleet: %s\n", scenario.fleet.Render().c_str());
  std::printf("workloads: %zu (RAM 6..20 GB, CPU 0.5..1.8 cores each)\n\n",
              scenario.profiles.size());

  // 1. Class-aware solve over the full mixed fleet.
  std::string winner;
  const core::ConsolidationPlan mixed =
      SolveOn(scenario.profiles, scenario.fleet, &winner);
  std::printf("class-aware placement (winner %s):\n%s\n", winner.c_str(),
              mixed.Render().c_str());

  // 2. Baseline: the same workloads forced onto the weakest class alone.
  const sim::MachineClass& weak = scenario.fleet.classes[scenario.weakest_class];
  sim::FleetSpec weakest_only;
  weakest_only.AddClass(weak.spec, static_cast<int>(scenario.profiles.size()),
                        weak.cost_weight);
  const core::ConsolidationPlan forced =
      SolveOn(scenario.profiles, weakest_only, nullptr);

  std::printf("forced onto weakest class (%s): servers=%d, fleet cost %s\n",
              weak.spec.name.c_str(), forced.servers_used,
              util::FormatDouble(forced.fleet_cost, 2).c_str());
  std::printf(
      "class-aware fleet cost %s vs weakest-only %s -> %s%% cheaper\n",
      util::FormatDouble(mixed.fleet_cost, 2).c_str(),
      util::FormatDouble(forced.fleet_cost, 2).c_str(),
      util::FormatDouble(forced.fleet_cost > 0
                             ? 100.0 * (forced.fleet_cost - mixed.fleet_cost) /
                                   forced.fleet_cost
                             : 0.0,
                         1)
          .c_str());
  return 0;
}
