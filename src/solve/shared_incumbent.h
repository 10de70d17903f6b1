// SharedIncumbent: the mutex-protected best-plan blackboard a solver
// portfolio races against. Solvers publish improving assignments with
// Offer(); the portfolio (or any solver) polls ShouldStop() to abort early
// once a target objective is reached or a stop is requested.
//
// Solvers only *publish* to the incumbent and *poll* the stop flag — they
// never read the incumbent back into their own search trajectory. That
// keeps every solver's output a pure function of (problem, budget, seed),
// which is what makes portfolio results reproducible regardless of thread
// scheduling.
#ifndef KAIROS_SOLVE_SHARED_INCUMBENT_H_
#define KAIROS_SOLVE_SHARED_INCUMBENT_H_

#include <atomic>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

namespace kairos::solve {

/// Thread-safe best-known-plan store with early-stop signalling.
class SharedIncumbent {
 public:
  /// `target_objective`: once a feasible plan at or below this objective is
  /// offered, ShouldStop() flips to true. Use Unbounded() (the default) to
  /// never early-stop on quality.
  explicit SharedIncumbent(double target_objective = Unbounded());

  static constexpr double Unbounded() {
    return -std::numeric_limits<double>::infinity();
  }

  /// Publishes a candidate. Returns true when it improved the incumbent
  /// (feasible beats infeasible; then lower objective wins). Flips the stop
  /// flag when a feasible candidate reaches the target objective.
  bool Offer(const std::vector<int>& assignment, double objective,
             bool feasible, const std::string& source);

  /// Snapshot of the current best (valid=false when nothing offered yet).
  struct Snapshot {
    bool valid = false;
    std::vector<int> assignment;
    double objective = std::numeric_limits<double>::infinity();
    bool feasible = false;
    std::string source;
  };
  Snapshot Best() const;

  /// True once the target objective was reached.
  bool ShouldStop() const { return stop_.load(std::memory_order_relaxed); }

  /// Total Offer() calls / improving Offer() calls so far.
  int offers() const;
  int improvements() const;

 private:
  const double target_objective_;
  mutable std::mutex mu_;
  Snapshot best_;
  int offers_ = 0;
  int improvements_ = 0;
  std::atomic<bool> stop_{false};
};

}  // namespace kairos::solve

#endif  // KAIROS_SOLVE_SHARED_INCUMBENT_H_
