// The Placer interface of the solver portfolio (ROADMAP: race
// multiple strategies instead of betting on one algorithm, in the spirit of
// solver-portfolio architectures). A Solver turns a ConsolidationProblem
// into a ConsolidationPlan within a budget.
//
// The contract: a solver's plan is a pure function of (problem, budget,
// seed), and the budget is its only stop rule. Nothing a sibling solver
// does can reach it, so running members in parallel changes wall-clock
// only.
#ifndef KAIROS_SOLVE_SOLVER_H_
#define KAIROS_SOLVE_SOLVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/problem.h"

namespace kairos::solve {

/// Work limits for one Solve() call. Iteration/evaluation budgets (not
/// wall-clock) so results are machine-independent and reproducible.
struct SolveBudget {
  /// Move budget for the metaheuristics (SA, tabu).
  int max_iterations = 30000;
  /// DIRECT evaluation budget for the engine adapter's final solve.
  int direct_evaluations = 4000;
  /// DIRECT evaluation budget per engine feasibility probe.
  int probe_direct_evaluations = 800;
  /// Local-search sweep cap for the engine adapter.
  int local_search_max_sweeps = 60;
  /// Node budget for the "exact" branch-and-bound solver (one node per
  /// attempted placement), its only limit: large instances return the
  /// warm-start incumbent plus a gap bound instead of running away.
  int64_t exact_max_nodes = 50000;
  /// Warm-start seed (one server index per slot, all within [0, HardCap)).
  /// When valid, the metaheuristics and the "polish" solver start from it
  /// instead of the greedy packing whenever it scores no worse; empty means
  /// cold start. The online controller seeds this with its incumbent plan.
  std::vector<int> seed_assignment;
  /// Observability sink shared by every portfolio member, nullable. Solvers
  /// record incumbent-improvement curves ("incumbent" events on track
  /// "<name>/<seed>") at iteration granularity; a null sink costs one
  /// predictable branch per improvement and an attached one never touches
  /// any RNG stream (plans stay bit-identical with the observer on or off).
  obs::Sink* sink = nullptr;
};

/// Upper bound on server indices a solver may use (the problem's
/// max_servers, or one server per slot when unset, further capped by a
/// bounded fleet).
int HardCap(const core::ConsolidationProblem& problem);

/// Unpinned slots currently placed on `server` in `ev`'s loaded assignment
/// (the move set of the metaheuristics' cross-class "re-class" neighborhood).
std::vector<int> MovableSlotsOn(const core::Evaluator& ev, int server);

/// Empty, non-drained servers of a *different* machine class than `from`:
/// the candidate targets of a re-class move (migrating one server's whole
/// payload onto another hardware generation).
std::vector<int> EmptyCrossClassServers(const core::ConsolidationProblem& problem,
                                        const core::Evaluator& ev, int from);

/// True when `seed` can warm-start the problem at `cap` servers: one entry
/// per slot, every entry in [0, cap).
bool ValidSeedAssignment(const core::ConsolidationProblem& problem, int cap,
                         const std::vector<int>& seed);

/// The start assignment for seeded solvers: the budget's warm seed when
/// valid and no costlier than the multi-resource greedy packing (ties keep
/// the warm seed, so an incumbent-quality start is never thrown away),
/// otherwise the greedy packing.
core::Assignment StartAssignment(const core::ConsolidationProblem& problem,
                                 int cap, const SolveBudget& budget);

/// The best-so-far record of a move-based search (anneal, tabu): the best
/// assignment, its cost and feasibility (feasible beats infeasible, then
/// lower cost wins). With a sink it also draws the search's incumbent curve
/// ("incumbent" points on track "<name>/<seed>", starting with an
/// iteration-0 point) and counts improvements in "<name>.improvements"; it
/// never touches an RNG stream, so plans are the same with or without one.
class BestSoFar {
 public:
  /// Starts at `ev`'s loaded assignment.
  BestSoFar(const core::Evaluator& ev, const std::string& name, uint64_t seed,
            obs::Sink* sink);

  /// Takes `ev`'s current assignment when it beats the best; `iteration`
  /// labels the curve point.
  void Record(const core::Evaluator& ev, int iteration);

  const std::vector<int>& assignment() const { return assignment_; }
  double cost() const { return cost_; }

 private:
  std::vector<int> assignment_;
  double cost_ = 0;
  bool feasible_ = false;
  obs::Sink* sink_ = nullptr;
  uint32_t track_ = 0;
  uint32_t incumbent_ = 0;
  obs::Counter* improvements_ = nullptr;
};

/// A portfolio member: deterministic in (problem, budget, seed), stopping
/// only on its budget.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Factory key / report label.
  virtual std::string name() const = 0;

  virtual core::ConsolidationPlan Solve(const core::ConsolidationProblem& problem,
                                        const SolveBudget& budget) = 0;
};

/// The built-in solver `name` seeded with `seed`; null for an unknown name.
std::unique_ptr<Solver> CreateSolver(const std::string& name, uint64_t seed);

/// The names CreateSolver knows, sorted: "anneal", "engine", "exact",
/// "greedy", "greedy-multi", "polish", "sharded", "tabu".
const std::vector<std::string>& SolverNames();

}  // namespace kairos::solve

#endif  // KAIROS_SOLVE_SOLVER_H_
