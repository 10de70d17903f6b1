// Tabu search over Assignment moves: best-improvement relocation scans
// with a recency-based tabu list on (slot, server) pairs, aspiration on
// best-ever cost, and periodic swap kicks. Seeded from the multi-resource
// greedy and scored by the incremental core::Evaluator.
#ifndef KAIROS_SOLVE_TABU_H_
#define KAIROS_SOLVE_TABU_H_

#include "solve/solver.h"

namespace kairos::solve {

/// Deterministic tabu search. Never returns a plan worse than its greedy
/// seed (the reported plan is the best-ever assignment, which starts at the
/// seed).
class TabuSolver : public Solver {
 public:
  explicit TabuSolver(uint64_t seed) : seed_(seed) {}

  std::string name() const override { return "tabu"; }
  core::ConsolidationPlan Solve(const core::ConsolidationProblem& problem,
                                const SolveBudget& budget) override;

 private:
  uint64_t seed_;
};

}  // namespace kairos::solve

#endif  // KAIROS_SOLVE_TABU_H_
