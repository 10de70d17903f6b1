// PortfolioRunner: races N registered solvers concurrently against one
// SharedIncumbent. Each solver is deterministic given its seed and never
// reads the incumbent back into its trajectory, so without a target
// objective the winning plan is a pure function of (problem, specs,
// budget) — thread count and scheduling only change wall-clock, not
// results. With a target objective set the race early-stops as soon as any
// solver reaches it; the winner is then guaranteed to meet the target, but
// its identity may vary between runs, because solvers interrupted by the
// stop flag return their (timing-dependent) best-so-far.
#ifndef KAIROS_SOLVE_PORTFOLIO_H_
#define KAIROS_SOLVE_PORTFOLIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "solve/solver.h"

namespace kairos::solve {

/// One portfolio member: a registry key plus its deterministic seed.
struct PortfolioSolverSpec {
  std::string solver;
  uint64_t seed = 1;
};

struct PortfolioOptions {
  /// Worker threads; 0 = one per solver (capped at hardware concurrency).
  int threads = 0;
  /// Per-solver work limits.
  SolveBudget budget;
  /// Early-stop: abort all solvers once a feasible plan at or below this
  /// objective is found. Default: run every solver to completion.
  double target_objective = SharedIncumbent::Unbounded();
};

/// Per-solver outcome, in spec order.
struct PortfolioMemberResult {
  std::string solver;
  uint64_t seed = 0;
  /// The member's plan without per-server load snapshots (`server_loads`
  /// is empty; PortfolioResult::best carries the winner's).
  core::ConsolidationPlan plan;
  double solve_seconds = 0;
};

struct PortfolioResult {
  /// The winning plan (deterministic tie-break: feasible first, then lower
  /// objective, then fewer servers, then lower spec index).
  core::ConsolidationPlan best;
  int winner_index = -1;       ///< Index into `members` / the spec list.
  std::string winner;          ///< Solver name of the winner.
  bool early_stopped = false;  ///< Target objective reached before all done.
  int incumbent_improvements = 0;
  double wall_seconds = 0;
  std::vector<PortfolioMemberResult> members;
};

/// Runs solver portfolios.
class PortfolioRunner {
 public:
  explicit PortfolioRunner(PortfolioOptions options = PortfolioOptions())
      : options_(options) {}

  /// Races `specs` (looked up in SolverRegistry::Global()) on the problem.
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
