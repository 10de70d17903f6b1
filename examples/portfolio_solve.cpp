// Solver-portfolio consolidation: run every built-in placement strategy
// concurrently and keep the best plan.
//
//   build/example_portfolio_solve [dataset] [threads]
//
// Runs every solver in solve::SolverNames() (src/solve/) on one of the
// paper's datasets. Each solver is a pure function of (problem, budget,
// seed) and stops only on its budget, so results are deterministic for a
// fixed seed set: thread count changes wall-clock only. Prints each
// member's outcome and the winning plan.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/engine.h"
#include "model/analytic.h"
#include "solve/portfolio.h"
#include "trace/dataset.h"
#include "util/units.h"

using namespace kairos;

int main(int argc, char** argv) {
  trace::DatasetKind kind = trace::DatasetKind::kWikia;
  if (argc >= 2) {
    for (auto k : trace::AllDatasets()) {
      if (trace::DatasetName(k) == argv[1]) kind = k;
    }
  }
  const int threads = argc >= 3 ? std::atoi(argv[2]) : 0;

  const auto traces = trace::DatasetGenerator(2026).Generate(kind);
  const model::DiskModel disk_model = model::BuildAnalyticModel(
      sim::DiskSpec::Raid10(), model::AnalyticConfig{}, 120e9, 2000.0);

  core::ConsolidationProblem problem;
  problem.workloads = trace::ToProfiles(traces);
  problem.disk_model = &disk_model;

  // One spec per built-in solver, each with its own seed derived from the
  // shared experiment seed.
  std::vector<solve::PortfolioSolverSpec> specs;
  uint64_t seed = 2026;
  for (const std::string& name : solve::SolverNames()) {
    specs.push_back({name, seed});
    seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  }

  std::printf("racing %zu solvers on '%s' (%zu workloads, threads=%s)\n",
              specs.size(), trace::DatasetName(kind).c_str(), traces.size(),
              threads > 0 ? std::to_string(threads).c_str() : "auto");

  solve::PortfolioOptions options;
  options.threads = threads;
  const solve::PortfolioResult result =
      solve::PortfolioRunner(options).Run(problem, specs);

  std::printf("\n%-14s %-10s %-12s %-10s %s\n", "solver", "seconds",
              "objective", "feasible", "servers");
  for (const auto& member : result.members) {
    std::printf("%-14s %-10.2f %-12.1f %-10s %d\n", member.solver.c_str(),
                member.solve_seconds, member.plan.objective,
                member.plan.feasible ? "yes" : "no",
                member.plan.servers_used);
  }
  std::printf("\nwinner: %s (%.2fs wall)\n", result.winner.c_str(),
              result.wall_seconds);
  std::printf("\n%s\n", result.best.Render().c_str());
  return 0;
}
