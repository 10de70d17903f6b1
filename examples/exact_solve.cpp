// Budgeted exact solving: prove an optimum with the "exact" branch-and-bound
// solver where the instance allows it, and measure the portfolio's gap to
// the certificate.
//
//   build/example_exact_solve [workloads] [max-nodes]
//
// Takes the first [workloads] servers of the Wikia dataset (default 8 — small
// enough to certify within the default node budget), runs the "exact" solver,
// then races the regular portfolio on the same instance and reports how far
// its incumbent sits from the proven optimum. Raise [workloads] to watch the
// search hit its node budget and degrade gracefully: the plan stays valid and
// the Render() line switches from "proved optimal" to a gap bound.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/engine.h"
#include "model/analytic.h"
#include "solve/portfolio.h"
#include "solve/solver.h"
#include "trace/dataset.h"

using namespace kairos;

int main(int argc, char** argv) {
  const int workloads = argc >= 2 ? std::atoi(argv[1]) : 8;
  const int64_t max_nodes = argc >= 3 ? std::atoll(argv[2]) : 50000;

  const auto traces = trace::DatasetGenerator(2026).Generate(
      trace::DatasetKind::kWikia);
  const model::DiskModel disk_model = model::BuildAnalyticModel(
      sim::DiskSpec::Raid10(), model::AnalyticConfig{}, 120e9, 2000.0);

  core::ConsolidationProblem problem;
  problem.workloads = trace::ToProfiles(traces);
  if (workloads > 0 &&
      workloads < static_cast<int>(problem.workloads.size())) {
    problem.workloads.resize(workloads);
  }
  problem.disk_model = &disk_model;
  // A tight server cap keeps the search tree certifiable; the exact solver
  // prunes with the unified bound layer's committed-cost lower bounds.
  problem.max_servers = 5;

  solve::SolveBudget budget;
  budget.exact_max_nodes = max_nodes;

  std::printf("exact solve: %zu workloads, cap %d, node budget %lld\n",
              problem.workloads.size(), problem.max_servers,
              static_cast<long long>(budget.exact_max_nodes));

  auto exact = solve::CreateSolver("exact", 2026);
  const core::ConsolidationPlan certificate =
      exact->Solve(problem, budget);
  std::printf("\n--- exact branch-and-bound ---\n%s\n",
              certificate.Render().c_str());

  // The same instance through the default portfolio (which deliberately
  // excludes "exact": it is a certificate tool, not a racer).
  solve::PortfolioOptions options;
  options.budget = budget;
  const solve::PortfolioResult portfolio = solve::PortfolioRunner(options).Run(
      problem, solve::PortfolioRunner::DefaultSpecs(2026));
  std::printf("--- portfolio (winner: %s) ---\n%s\n",
              portfolio.winner.c_str(), portfolio.best.Render().c_str());

  const double gap = portfolio.best.objective - certificate.objective;
  if (certificate.proved_optimal) {
    std::printf("portfolio gap to proven optimum: %.6f (%.4f%%)\n", gap,
                100.0 * gap / std::max(1.0, std::abs(certificate.objective)));
  } else {
    std::printf("search truncated at %lld nodes: optimum within %.3f of "
                "%.1f; portfolio sits %.6f above the incumbent\n",
                static_cast<long long>(certificate.exact_nodes),
                certificate.optimality_gap, certificate.objective, gap);
  }
  return 0;
}
