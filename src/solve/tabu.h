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
  struct Options {
    /// Base tabu tenure, in iterations; the effective tenure adds a small
    /// seeded jitter so cycles of any fixed length break.
    int tenure = 12;
    int tenure_jitter = 6;
    /// Every `kick_interval` non-improving iterations, apply a random swap
    /// kick to escape the current basin.
    int kick_interval = 40;
    /// Heterogeneous fleets only: every `reclass_interval` non-improving
    /// iterations, kick one server's whole unpinned payload onto an empty
    /// server of a different machine class as one Evaluator::ApplyPackage
    /// (at most 2 pricings; the budget counts one evaluation per moved
    /// slot). Never fires on uniform fleets, keeping the homogeneous
    /// search bit-identical.
    int reclass_interval = 25;
    /// ShouldStop() poll interval, in iterations.
    int stop_poll_interval = 64;
  };

  explicit TabuSolver(uint64_t seed) : seed_(seed) {}
  TabuSolver(uint64_t seed, const Options& options)
      : seed_(seed), options_(options) {}

  std::string name() const override { return "tabu"; }
  core::ConsolidationPlan Solve(const core::ConsolidationProblem& problem,
                                const SolveBudget& budget,
                                SharedIncumbent* incumbent) override;

 private:
  uint64_t seed_;
  Options options_;
};

}  // namespace kairos::solve

#endif  // KAIROS_SOLVE_TABU_H_
