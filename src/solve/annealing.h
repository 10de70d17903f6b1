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
  struct Options {
    /// Initial acceptance temperature as a fraction of the seed cost.
    double initial_temp_fraction = 0.02;
    /// Geometric cooling rate applied once per epoch.
    double cooling = 0.95;
    /// Moves per epoch, as a multiple of the slot count.
    int epoch_slots_factor = 8;
    /// Probability of proposing a swap instead of a relocation.
    double swap_probability = 0.25;
    /// Heterogeneous fleets only: probability of proposing a cross-class
    /// "re-class" move — one server's whole unpinned payload migrates onto
    /// an empty server of a different machine class, as one
    /// Evaluator::ApplyPackage (at most 2 pricings) that a reject undoes
    /// from its snapshot (0 pricings). Never drawn on uniform fleets, so
    /// the homogeneous move stream is untouched.
    double reclass_probability = 0.08;
    /// ShouldStop() poll interval, in moves.
    int stop_poll_interval = 256;
  };

  explicit AnnealingSolver(uint64_t seed) : seed_(seed) {}
  AnnealingSolver(uint64_t seed, const Options& options)
      : seed_(seed), options_(options) {}

  std::string name() const override { return "anneal"; }
  core::ConsolidationPlan Solve(const core::ConsolidationProblem& problem,
                                const SolveBudget& budget,
                                SharedIncumbent* incumbent) override;

 private:
  uint64_t seed_;
  Options options_;
};

}  // namespace kairos::solve

#endif  // KAIROS_SOLVE_ANNEALING_H_
