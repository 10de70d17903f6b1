// Simulated annealing over Assignment moves (relocate + swap), seeded from
// the multi-resource greedy and scored by the incremental core::Evaluator.
// A cheap, derivative-free complement to the DIRECT engine in the
// portfolio: it explores the discrete move space directly instead of going
// through the continuous encoding.
#ifndef KAIROS_SOLVE_ANNEALING_H_
#define KAIROS_SOLVE_ANNEALING_H_

#include "solve/solver.h"

namespace kairos::solve {

/// Anneal's pricing-free reject: true only when the Metropolis rule
/// `u < exp(-delta / temperature)` rejects every delta >= `floor` (> 0).
/// With delta >= floor, exp(-delta / T) <= exp(-floor / T), so a `u` at or
/// above the latter rejects; the 1 + 2^-40 factor covers an `exp` that is
/// not exactly monotone, and u == 0 is left to the exact rule (it accepts
/// whenever exp(-delta / T) has not underflowed to 0).
bool AnnealFloorRejects(double floor, double u, double temperature);

/// Geometric-cooling SA. Never returns a plan worse than its greedy seed:
/// the best-ever assignment (which starts at the seed) is what is reported.
class AnnealingSolver : public Solver {
 public:
  explicit AnnealingSolver(uint64_t seed) : seed_(seed) {}

  std::string name() const override { return "anneal"; }
  core::ConsolidationPlan Solve(const core::ConsolidationProblem& problem,
                                const SolveBudget& budget) override;

 private:
  uint64_t seed_;
};

}  // namespace kairos::solve

#endif  // KAIROS_SOLVE_ANNEALING_H_
