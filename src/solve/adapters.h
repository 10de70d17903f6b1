// Portfolio adapters wrapping the pre-existing placers behind the Solver
// interface: the paper's greedy baselines (Section 6) and the full
// bounded-K DIRECT consolidation engine (Sections 5-6).
#ifndef KAIROS_SOLVE_ADAPTERS_H_
#define KAIROS_SOLVE_ADAPTERS_H_

#include "solve/solver.h"

namespace kairos::solve {

/// core::GreedyBaseline — the paper's single-resource greedy comparison
/// baseline (tries each resource, keeps the best feasible packing).
class GreedyBaselineSolver : public Solver {
 public:
  std::string name() const override { return "greedy"; }
  core::ConsolidationPlan Solve(const core::ConsolidationProblem& problem,
                                const SolveBudget& budget) override;
};

/// core::GreedyMultiResource — the multi-resource greedy used to seed the
/// engine. Always completes; may be infeasible.
class GreedyMultiSolver : public Solver {
 public:
  std::string name() const override { return "greedy-multi"; }
  core::ConsolidationPlan Solve(const core::ConsolidationProblem& problem,
                                const SolveBudget& budget) override;
};

/// core::ConsolidationEngine — bounded-K binary search over DIRECT probes
/// plus local-search polish.
class EngineSolver : public Solver {
 public:
  explicit EngineSolver(uint64_t seed) : seed_(seed) {}
  std::string name() const override { return "engine"; }
  core::ConsolidationPlan Solve(const core::ConsolidationProblem& problem,
                                const SolveBudget& budget) override;

 private:
  uint64_t seed_;
};

/// core::ConsolidationEngine::PolishPlan around the budget's warm-start
/// seed (or the multi-resource greedy when none is given): local search
/// plus a DIRECT pass at the full cap, without the binary search on K. The
/// cheapest way to refresh an incumbent after small drift — the online
/// controller's workhorse.
class WarmStartPolishSolver : public Solver {
 public:
  explicit WarmStartPolishSolver(uint64_t seed) : seed_(seed) {}
  std::string name() const override { return "polish"; }
  core::ConsolidationPlan Solve(const core::ConsolidationProblem& problem,
                                const SolveBudget& budget) override;

 private:
  uint64_t seed_;
};

}  // namespace kairos::solve

#endif  // KAIROS_SOLVE_ADAPTERS_H_
