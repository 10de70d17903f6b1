// PortfolioRunner: runs N solvers concurrently and keeps the best plan.
// Every solver is a pure function of (problem, budget, seed) that stops
// only on its budget, so the winning plan is a pure function of (problem,
// specs, budget): thread count and scheduling change wall-clock only.
#ifndef KAIROS_SOLVE_PORTFOLIO_H_
#define KAIROS_SOLVE_PORTFOLIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "solve/solver.h"

namespace kairos::solve {

/// One portfolio member: a CreateSolver name plus its deterministic seed.
struct PortfolioSolverSpec {
  std::string solver;
  uint64_t seed = 1;
};

struct PortfolioOptions {
  /// Worker threads; 0 = one per solver (capped at hardware concurrency).
  int threads = 0;
  /// Per-solver work limits.
  SolveBudget budget;
};

/// Per-solver outcome, in spec order.
struct PortfolioMemberResult {
  std::string solver;
  uint64_t seed = 0;
  core::ConsolidationPlan plan;
  double solve_seconds = 0;
};

struct PortfolioResult {
  /// The winning plan (deterministic tie-break: feasible first, then lower
  /// objective, then fewer servers, then lower spec index).
  core::ConsolidationPlan best;
  int winner_index = -1;  ///< Index into `members` / the spec list.
  std::string winner;     ///< Solver name of the winner.
  double wall_seconds = 0;
  std::vector<PortfolioMemberResult> members;
};

/// Runs solver portfolios.
class PortfolioRunner {
 public:
  explicit PortfolioRunner(PortfolioOptions options = PortfolioOptions())
      : options_(options) {}

  /// Runs `specs` (built with CreateSolver) on the problem.
  /// Unknown solver names are reported with an infeasible empty plan.
  PortfolioResult Run(const core::ConsolidationProblem& problem,
                      const std::vector<PortfolioSolverSpec>& specs) const;

  /// The default portfolio: {greedy, engine, anneal, tabu}, seeds derived
  /// from `seed`.
  static std::vector<PortfolioSolverSpec> DefaultSpecs(uint64_t seed = 1);

 private:
  PortfolioOptions options_;
};

}  // namespace kairos::solve

#endif  // KAIROS_SOLVE_PORTFOLIO_H_
