// The exact portfolio member (solver name "exact"): depth-first
// branch-and-bound over the slot->server assignment encoding, pruned by
// core::BoundEngine's incremental committed cost + admissible completion
// bound (the "ILP Modulo Data" decomposition: an exact master search
// propagating against the LoadAccountant's load/capacity data).
//
// The search space is exactly the opt::direct encoding the heuristics
// optimize over — pins forced, free slots restricted to the fleet's
// placement targets — with symmetry breaking across identical servers:
// closed servers of the same machine class are interchangeable unless a pin
// or the problem's current assignment distinguishes them, so only the first
// closed undistinguished server per class is branched on.
//
// Deterministic: the node budget (SolveBudget::exact_max_nodes) is the only
// limit, so the result never depends on machine speed. On truncation the
// plan carries an upper bound on the optimality gap; an exhausted search
// sets proved_optimal (ConsolidationPlan's exact fields), which
// bench_solver_performance turns into solver.gap_to_exact.
#ifndef KAIROS_SOLVE_BRANCH_BOUND_H_
#define KAIROS_SOLVE_BRANCH_BOUND_H_

#include <cstdint>

#include "solve/solver.h"

namespace kairos::solve {

class BranchAndBoundSolver : public Solver {
 public:
  explicit BranchAndBoundSolver(uint64_t seed) : seed_(seed) {}

  std::string name() const override { return "exact"; }

  core::ConsolidationPlan Solve(const core::ConsolidationProblem& problem,
                                const SolveBudget& budget) override;

 private:
  uint64_t seed_;
};

}  // namespace kairos::solve

#endif  // KAIROS_SOLVE_BRANCH_BOUND_H_
